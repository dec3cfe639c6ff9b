#include "src/docking/pose_scorer.h"

#include "src/gb/epol.h"
#include "src/gb/kernel_primitives.h"
#include "src/util/fastmath.h"

namespace octgb::docking {

namespace {

// Raw self integrals (sum over the molecule's own surface) per atom.
std::vector<double> self_integral_sums(const gb::BornOctrees& trees,
                                       const molecule::Molecule& mol,
                                       const surface::QuadratureSurface& surf,
                                       const gb::ApproxParams& params,
                                       parallel::WorkStealingPool* pool) {
  gb::BornWorkspace ws(trees);
  gb::approx_integrals(trees, mol, surf, 0, trees.qpoints.num_leaves(),
                       params, ws, pool);
  std::vector<double> sums(mol.size(), 0.0);
  gb::collect_integrals_to_atoms(trees.atoms, ws, sums);
  return sums;
}

// Born radii from combined (self + cross) integral sums (Eq. 4).
std::vector<double> radii_from_sums(const molecule::Molecule& mol,
                                    std::span<const double> sums,
                                    bool approx_math) {
  std::vector<double> radii(mol.size());
  const auto intrinsic = mol.radii();
  for (std::size_t i = 0; i < mol.size(); ++i) {
    radii[i] = approx_math
                   ? gb::born_radius<6, util::ApproxMath>(sums[i],
                                                          intrinsic[i])
                   : gb::born_radius<6, util::ExactMath>(sums[i],
                                                         intrinsic[i]);
  }
  return radii;
}

}  // namespace

PoseScorer::PoseScorer(molecule::Molecule receptor,
                       molecule::Molecule ligand,
                       const gb::CalculatorParams& params,
                       parallel::WorkStealingPool* pool)
    : params_(params),
      pool_(pool),
      receptor_(std::move(receptor)),
      ligand_(std::move(ligand)) {
  receptor_surf_ = surface::build_surface(receptor_, params_.surface, pool_);
  ligand_surf_ = surface::build_surface(ligand_, params_.surface, pool_);

  receptor_cache_.trees =
      gb::build_born_octrees(receptor_, receptor_surf_, params_.octree);
  ligand_cache_.trees =
      gb::build_born_octrees(ligand_, ligand_surf_, params_.octree);

  receptor_cache_.self_sums = self_integral_sums(
      receptor_cache_.trees, receptor_, receptor_surf_, params_.approx,
      pool_);
  ligand_cache_.self_sums = self_integral_sums(
      ligand_cache_.trees, ligand_, ligand_surf_, params_.approx, pool_);

  // Isolated energies from the cached self radii.
  const std::vector<double> receptor_radii =
      radii_from_sums(receptor_, receptor_cache_.self_sums,
                      params_.approx.approx_math);
  receptor_energy_ =
      gb::epol_octree(receptor_cache_.trees.atoms, receptor_,
                      receptor_radii, params_.approx, params_.physics,
                      pool_)
          .energy;
  const std::vector<double> ligand_radii =
      radii_from_sums(ligand_, ligand_cache_.self_sums,
                      params_.approx.approx_math);
  ligand_energy_ =
      gb::epol_octree(ligand_cache_.trees.atoms, ligand_, ligand_radii,
                      params_.approx, params_.physics, pool_)
          .energy;
}

PoseScore PoseScorer::score(const geom::Rigid& pose) const {
  // --- Transform the ligand side: structures move, trees move with
  // them (no rebuild -- the paper's trick). ---
  molecule::Molecule posed_ligand = ligand_;
  posed_ligand.transform(pose);
  surface::QuadratureSurface posed_surf = ligand_surf_;
  for (auto& p : posed_surf.points) p = pose.apply(p);
  for (auto& n : posed_surf.normals) n = pose.apply_dir(n);
  gb::BornOctrees posed_trees = ligand_cache_.trees;
  posed_trees.atoms.transform(pose);
  posed_trees.qpoints.transform(pose);
  // ñ_Q aggregates rotate with the surface.
  for (auto& v : posed_trees.q_weighted_normal) v = pose.apply_dir(v);

  // --- Cross integrals: receptor atoms <- ligand surface, and ligand
  // atoms <- receptor surface. ---
  gb::BornWorkspace ws_receptor(receptor_cache_.trees.atoms);
  gb::approx_integrals_cross(receptor_cache_.trees.atoms, receptor_,
                             posed_trees.qpoints,
                             posed_trees.q_weighted_normal, posed_surf,
                             params_.approx, ws_receptor, pool_);
  std::vector<double> receptor_sums(receptor_.size(), 0.0);
  gb::collect_integrals_to_atoms(receptor_cache_.trees.atoms, ws_receptor,
                                 receptor_sums);

  gb::BornWorkspace ws_ligand(posed_trees.atoms);
  gb::approx_integrals_cross(posed_trees.atoms, posed_ligand,
                             receptor_cache_.trees.qpoints,
                             receptor_cache_.trees.q_weighted_normal,
                             receptor_surf_, params_.approx, ws_ligand,
                             pool_);
  std::vector<double> ligand_sums(posed_ligand.size(), 0.0);
  gb::collect_integrals_to_atoms(posed_trees.atoms, ws_ligand,
                                 ligand_sums);

  // --- Complex Born radii: self + cross sums per atom. ---
  molecule::Molecule complex = receptor_;
  complex.append(posed_ligand);
  std::vector<double> complex_radii(complex.size());
  {
    std::vector<double> sums(complex.size());
    for (std::size_t i = 0; i < receptor_.size(); ++i) {
      sums[i] = receptor_cache_.self_sums[i] + receptor_sums[i];
    }
    for (std::size_t i = 0; i < posed_ligand.size(); ++i) {
      sums[receptor_.size() + i] =
          ligand_cache_.self_sums[i] + ligand_sums[i];
    }
    complex_radii =
        radii_from_sums(complex, sums, params_.approx.approx_math);
  }

  // --- E_pol over the complex. The atoms octree of the complex is the
  // one per-pose build (O(M log M), cheap next to the integrals). ---
  const octree::Octree complex_tree(complex.positions(), params_.octree);
  PoseScore result;
  result.complex_energy =
      gb::epol_octree(complex_tree, complex, complex_radii, params_.approx,
                      params_.physics, pool_)
          .energy;
  result.delta_energy =
      result.complex_energy - receptor_energy_ - ligand_energy_;
  return result;
}

}  // namespace octgb::docking
