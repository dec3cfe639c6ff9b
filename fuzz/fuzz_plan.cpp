// fuzz_plan.cpp -- fuzzes octree construction and interaction-plan
// building against the deep validators.
//
// Input bytes are decoded into a bounded synthetic molecule (atom
// positions/radii/charges from fixed-point byte triples, so every input
// is valid by construction -- the parser fuzzer owns rejection) plus
// octree/approximation knobs. The harness then builds the full geometric
// pipeline -- both octrees, the node aggregates, the interaction plan --
// and runs the src/analysis validators over the result. Any report
// finding (a pair dropped or double-counted, a far pair violating the
// separation criterion, a node range leak...) aborts: the validators are
// the oracle, the fuzzer searches for geometry that breaks the builders.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/analysis/validate.h"
#include "src/gb/born.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/types.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/surface/quadrature.h"

namespace {

[[noreturn]] void die(const char* stage, const std::string& report) {
  std::fprintf(stderr, "fuzz_plan: %s validator failed:\n%s\n", stage,
               report.c_str());
  std::abort();
}

struct ByteStream {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t next() { return pos < size ? data[pos++] : 0; }

  // Fixed-point decode: byte -> [lo, hi] on a 255-step lattice. Never
  // NaN/Inf, so the pipeline's input contract holds by construction.
  double range(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(next()) / 255.0);
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 8) return 0;
  ByteStream bs{data, size};

  // Degenerate geometry on purpose: clustered + coincident atoms probe
  // the max-depth recursion cap and zero-distance far tests.
  const std::size_t num_atoms = 1 + bs.next() % 48;
  const bool clustered = (bs.next() & 1) != 0;
  octgb::molecule::Molecule mol("fuzz");
  for (std::size_t i = 0; i < num_atoms; ++i) {
    octgb::molecule::Atom a;
    const double span = clustered ? 4.0 : 40.0;
    a.position = {bs.range(-span, span), bs.range(-span, span),
                  bs.range(-span, span)};
    a.radius = bs.range(0.5, 3.0);
    a.charge = bs.range(-1.0, 1.0);
    mol.add_atom(a);
  }

  octgb::octree::OctreeParams oparams;
  oparams.leaf_capacity = 1 + bs.next() % 8;  // deep trees
  octgb::gb::ApproxParams aparams;
  aparams.eps_born = 0.05 + bs.range(0.0, 4.0);
  aparams.eps_epol = 0.05 + bs.range(0.0, 4.0);
  aparams.strict_born_criterion = (bs.next() & 1) != 0;

  const octgb::surface::QuadratureSurface surf =
      octgb::surface::sphere_sampled_surface(mol, 8, 1.1);
  const octgb::gb::BornOctrees trees =
      octgb::gb::build_born_octrees(mol, surf, oparams);

  auto report = octgb::analysis::validate_octree(trees.atoms,
                                                 mol.positions(), &oparams);
  if (!report.ok()) die("atoms octree", report.str());
  report = octgb::analysis::validate_octree(trees.qpoints, surf.points,
                                            &oparams);
  if (!report.ok()) die("q-point octree", report.str());
  report = octgb::analysis::validate_born_octrees(trees, surf);
  if (!report.ok()) die("born aggregates", report.str());

  const octgb::gb::InteractionPlan plan =
      octgb::gb::build_interaction_plan(trees, aparams, nullptr);
  report = octgb::analysis::validate_plan(trees, plan, aparams);
  if (!report.ok()) die("interaction plan", report.str());

  // A rank-local plan over a random q-leaf and v-leaf range must cover
  // exactly its own sources.
  const std::size_t nq = trees.qpoints.num_leaves();
  const std::size_t nv = trees.atoms.num_leaves();
  octgb::gb::PlanScope scope;
  scope.born_begin = nq == 0 ? 0 : bs.next() % (nq + 1);
  scope.born_end = scope.born_begin + (nq == 0 ? 0 : bs.next() % (nq + 1));
  scope.epol_begin = nv == 0 ? 0 : bs.next() % (nv + 1);
  scope.epol_end = scope.epol_begin + (nv == 0 ? 0 : bs.next() % (nv + 1));
  const octgb::gb::InteractionPlan part = octgb::gb::build_interaction_plan(
      trees.atoms, trees.qpoints, aparams, scope, nullptr);
  report = octgb::analysis::validate_plan(trees, part, aparams);
  if (!report.ok()) die("scoped interaction plan", report.str());

  // The dual-tree Born visit (OCT_CILK): far items may have internal
  // T_Q sources, which must still cover every q-leaf exactly once.
  const octgb::gb::InteractionPlan dual = octgb::gb::build_interaction_plan(
      trees.atoms, trees.qpoints, aparams, octgb::gb::PlanScope::born_only(),
      nullptr, octgb::gb::Traversal::kDualTree);
  report = octgb::analysis::validate_plan(trees, dual, aparams);
  if (!report.ok()) die("dual-tree interaction plan", report.str());
  return 0;
}
