// codec.cpp -- the one translation unit allowed to touch raw bytes in
// the serve/cluster layers (enforced by the raw-serialize lint rule).
//
// Layout notes:
//  * multi-byte fields are written in the host's native byte order --
//    the runtime is rank-threads in one process, and the version field
//    guards any future change of that decision;
//  * vectors of padding-free PODs (u32/u64/double/Vec3/NodePair) are
//    bulk-copied; octree::Node contains tail padding and is therefore
//    written field by field, so encoded frames never contain
//    indeterminate padding bytes and byte-for-byte frame comparisons
//    are meaningful;
//  * every count is validated against the bytes actually remaining
//    before any container is sized from it, so a hostile length field
//    costs nothing.
#include "src/cluster/codec.h"

#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "src/gb/born.h"
#include "src/gb/interaction_lists.h"
#include "src/octree/octree.h"
#include "src/serve/content_hash.h"
#include "src/surface/quadrature.h"

namespace octgb::cluster {
namespace {

const char* kind_name(CodecError::Kind kind) {
  switch (kind) {
    case CodecError::Kind::kTruncated:
      return "truncated";
    case CodecError::Kind::kBadMagic:
      return "bad magic";
    case CodecError::Kind::kBadVersion:
      return "bad version";
    case CodecError::Kind::kBadChecksum:
      return "bad checksum";
    case CodecError::Kind::kCorruptField:
      return "corrupt field";
    case CodecError::Kind::kTrailingBytes:
      return "trailing bytes";
  }
  return "unknown";
}

[[noreturn]] void fail(CodecError::Kind kind, const std::string& message) {
  throw CodecError(kind, message);
}

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kChecksumBytes = 8;

std::uint64_t frame_checksum(std::span<const std::byte> covered) {
  serve::Fnv1a h;
  h.add_bytes(covered.data(), covered.size());
  return h.value();
}

/// Append-only frame writer. Construct, write the payload through the
/// typed primitives, then finish() patches the header and appends the
/// checksum.
class Writer {
 public:
  explicit Writer(PayloadKind kind) : kind_(kind) {
    buf_.resize(kHeaderBytes);  // patched in finish()
  }

  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  /// IEEE-754 bit pattern, never a formatted value.
  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  void vec3(const geom::Vec3& v) {
    f64(v.x);
    f64(v.y);
    f64(v.z);
  }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  /// Length-prefixed bulk copy. Only for PODs with no padding bytes --
  /// every instantiation below is one of u32/u64/double/Vec3/NodePair.
  template <typename T>
  void pod_span(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(data.size());
    raw(data.data(), data.size_bytes());
  }

  Bytes finish() {
    const std::uint64_t payload = buf_.size() - kHeaderBytes;
    std::byte* h = buf_.data();
    std::memcpy(h, &kCodecMagic, 4);
    std::memcpy(h + 4, &kCodecVersion, 2);
    h[6] = static_cast<std::byte>(kind_);
    h[7] = std::byte{0};
    std::memcpy(h + 8, &payload, 8);
    const std::uint64_t sum = frame_checksum(buf_);
    raw(&sum, sizeof sum);
    return std::move(buf_);
  }

 private:
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  PayloadKind kind_;
  Bytes buf_;
};

/// Bounds-checked frame reader. The constructor validates the whole
/// frame envelope (size, magic, version, kind, checksum); the typed
/// primitives then throw kTruncated on any read past the payload.
class Reader {
 public:
  Reader(std::span<const std::byte> bytes, PayloadKind expect)
      : bytes_(bytes) {
    if (bytes.size() < kHeaderBytes + kChecksumBytes) {
      fail(CodecError::Kind::kTruncated,
           "frame shorter than header + checksum (" +
               std::to_string(bytes.size()) + " bytes)");
    }
    std::uint32_t magic;
    std::uint16_t version;
    std::memcpy(&magic, bytes.data(), 4);
    std::memcpy(&version, bytes.data() + 4, 2);
    if (magic != kCodecMagic) {
      fail(CodecError::Kind::kBadMagic, "magic mismatch");
    }
    if (version != kCodecVersion) {
      fail(CodecError::Kind::kBadVersion,
           "codec version " + std::to_string(version) + ", expected " +
               std::to_string(kCodecVersion));
    }
    std::uint64_t payload;
    std::memcpy(&payload, bytes.data() + 8, 8);
    const std::size_t body = bytes.size() - kHeaderBytes - kChecksumBytes;
    if (payload > body) {
      fail(CodecError::Kind::kTruncated,
           "header declares " + std::to_string(payload) +
               " payload bytes, frame carries " + std::to_string(body));
    }
    if (payload < body) {
      fail(CodecError::Kind::kTrailingBytes,
           "frame carries " + std::to_string(body - payload) +
               " bytes past the declared payload");
    }
    std::uint64_t declared;
    std::memcpy(&declared, bytes.data() + bytes.size() - kChecksumBytes, 8);
    const std::uint64_t actual =
        frame_checksum(bytes.first(bytes.size() - kChecksumBytes));
    if (declared != actual) {
      fail(CodecError::Kind::kBadChecksum, "frame checksum mismatch");
    }
    const auto kind = static_cast<std::uint8_t>(bytes[6]);
    if (kind != static_cast<std::uint8_t>(expect)) {
      fail(CodecError::Kind::kCorruptField,
           "payload kind " + std::to_string(kind) + ", expected " +
               std::to_string(static_cast<std::uint8_t>(expect)));
    }
    cursor_ = kHeaderBytes;
    end_ = bytes.size() - kChecksumBytes;
  }

  std::uint8_t u8() { return read_as<std::uint8_t>(); }
  std::uint16_t u16() { return read_as<std::uint16_t>(); }
  std::uint32_t u32() { return read_as<std::uint32_t>(); }
  std::uint64_t u64() { return read_as<std::uint64_t>(); }
  std::int32_t i32() { return read_as<std::int32_t>(); }
  std::int64_t i64() { return read_as<std::int64_t>(); }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }
  geom::Vec3 vec3() {
    geom::Vec3 v;
    v.x = f64();
    v.y = f64();
    v.z = f64();
    return v;
  }
  std::string str() {
    const std::uint64_t n = checked_count("string length", 1);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }

  /// `true` decodes 1, `false` 0; anything else is corruption, not a
  /// bool.
  bool boolean(const char* field) {
    const std::uint8_t v = u8();
    if (v > 1) {
      fail(CodecError::Kind::kCorruptField,
           std::string(field) + ": bool encoded as " + std::to_string(v));
    }
    return v != 0;
  }

  template <typename T>
  std::vector<T> pod_vec(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = checked_count(field, sizeof(T));
    std::vector<T> out(n);
    raw(out.data(), n * sizeof(T));
    return out;
  }

  std::size_t remaining() const { return end_ - cursor_; }

  /// Every payload field consumed and nothing left over.
  void expect_done() const {
    if (cursor_ != end_) {
      fail(CodecError::Kind::kTrailingBytes,
           std::to_string(end_ - cursor_) + " payload bytes left undecoded");
    }
  }

 private:
  /// Reads a count field and proves the payload can actually hold that
  /// many `elem_bytes`-sized elements before anyone allocates off it.
  std::uint64_t checked_count(const char* field, std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / elem_bytes) {
      fail(CodecError::Kind::kTruncated,
           std::string(field) + ": count " + std::to_string(n) +
               " exceeds remaining payload");
    }
    return n;
  }

  template <typename T>
  T read_as() {
    T v;
    raw(&v, sizeof v);
    return v;
  }

  void raw(void* out, std::size_t n) {
    if (n > remaining()) {
      fail(CodecError::Kind::kTruncated, "read past end of payload");
    }
    std::memcpy(out, bytes_.data() + cursor_, n);
    cursor_ += n;
  }

  std::span<const std::byte> bytes_;
  std::size_t cursor_ = 0;
  std::size_t end_ = 0;
};

// ---- molecule ----

void write_molecule(Writer& w, const molecule::Molecule& mol) {
  w.str(mol.name());
  w.u64(mol.size());
  w.pod_span(mol.positions());
  w.pod_span(mol.radii());
  w.pod_span(mol.charges());
  const auto elements = mol.elements();
  for (const molecule::Element e : elements) {
    w.u8(static_cast<std::uint8_t>(e));
  }
}

molecule::Molecule read_molecule(Reader& r) {
  molecule::Molecule mol(r.str());
  const std::uint64_t n = r.u64();
  const auto positions = r.pod_vec<geom::Vec3>("molecule positions");
  const auto radii = r.pod_vec<double>("molecule radii");
  const auto charges = r.pod_vec<double>("molecule charges");
  if (positions.size() != n || radii.size() != n || charges.size() != n) {
    fail(CodecError::Kind::kCorruptField,
         "molecule SoA arrays disagree with atom count");
  }
  if (n > r.remaining()) {
    fail(CodecError::Kind::kTruncated, "molecule elements: count exceeds "
                                       "remaining payload");
  }
  mol.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint8_t e = r.u8();
    if (e > static_cast<std::uint8_t>(molecule::Element::Other)) {
      fail(CodecError::Kind::kCorruptField,
           "element code " + std::to_string(e) + " out of range");
    }
    mol.add_atom({positions[i], radii[i], charges[i],
                  static_cast<molecule::Element>(e)});
  }
  return mol;
}

// ---- calculator params ----

void write_params(Writer& w, const gb::CalculatorParams& p) {
  w.f64(p.approx.eps_born);
  w.f64(p.approx.eps_epol);
  w.u8(p.approx.approx_math ? 1 : 0);
  w.u8(p.approx.strict_born_criterion ? 1 : 0);
  w.f64(p.surface.spacing);
  w.i32(p.surface.quadrature_degree);
  w.f64(p.surface.blobbiness);
  w.i32(p.surface.sphere_points);
  w.f64(p.surface.sphere_probe);
  w.u64(p.surface.mesh_atom_limit);
  w.u64(p.octree.leaf_capacity);
  w.i32(p.octree.max_depth);
  w.u64(p.octree.parallel_grain);
  w.f64(p.physics.eps_solvent);
  w.f64(p.physics.coulomb_k);
  w.u8(static_cast<std::uint8_t>(p.kernel));
}

gb::CalculatorParams read_params(Reader& r) {
  gb::CalculatorParams p;
  p.approx.eps_born = r.f64();
  p.approx.eps_epol = r.f64();
  p.approx.approx_math = r.boolean("approx_math");
  p.approx.strict_born_criterion = r.boolean("strict_born_criterion");
  p.surface.spacing = r.f64();
  p.surface.quadrature_degree = r.i32();
  p.surface.blobbiness = r.f64();
  p.surface.sphere_points = r.i32();
  p.surface.sphere_probe = r.f64();
  p.surface.mesh_atom_limit = r.u64();
  p.octree.leaf_capacity = r.u64();
  p.octree.max_depth = r.i32();
  p.octree.parallel_grain = r.u64();
  p.physics.eps_solvent = r.f64();
  p.physics.coulomb_k = r.f64();
  const std::uint8_t kernel = r.u8();
  if (kernel > static_cast<std::uint8_t>(gb::BornKernel::kSurfaceR4)) {
    fail(CodecError::Kind::kCorruptField,
         "Born kernel code " + std::to_string(kernel) + " out of range");
  }
  p.kernel = static_cast<gb::BornKernel>(kernel);
  return p;
}

// ---- quadrature surface ----

void write_surface(Writer& w, const surface::QuadratureSurface& surf) {
  w.pod_span(std::span<const geom::Vec3>(surf.points));
  w.pod_span(std::span<const geom::Vec3>(surf.normals));
  w.pod_span(std::span<const double>(surf.weights));
}

surface::QuadratureSurface read_surface(Reader& r) {
  surface::QuadratureSurface surf;
  surf.points = r.pod_vec<geom::Vec3>("surface points");
  surf.normals = r.pod_vec<geom::Vec3>("surface normals");
  surf.weights = r.pod_vec<double>("surface weights");
  if (surf.normals.size() != surf.points.size() ||
      surf.weights.size() != surf.points.size()) {
    fail(CodecError::Kind::kCorruptField,
         "surface parallel arrays disagree in length");
  }
  return surf;
}

// ---- octree ----

void write_octree(Writer& w, const octree::Octree& tree) {
  const octree::OctreeFlatData flat = tree.to_flat();
  // Node carries tail padding after the (depth, leaf) pair: write the
  // fields, never the struct, so frames contain no indeterminate bytes.
  w.u64(flat.nodes.size());
  for (const octree::Node& n : flat.nodes) {
    w.u32(n.begin);
    w.u32(n.end);
    w.u32(n.parent);
    w.u32(n.children.first);
    w.u8(n.children.count);
    w.u8(n.depth);
    w.u8(n.leaf ? 1 : 0);
    w.vec3(n.center);
    w.f64(n.radius);
  }
  w.pod_span(std::span<const std::uint32_t>(flat.point_index));
  w.pod_span(std::span<const std::uint32_t>(flat.leaves));
  w.pod_span(std::span<const std::uint32_t>(flat.level_offset));
  w.pod_span(std::span<const std::uint64_t>(flat.keys));
  w.pod_span(std::span<const std::uint64_t>(flat.node_key_lo));
  w.pod_span(std::span<const geom::Vec3>(flat.chunk_sums));
  w.pod_span(std::span<const std::uint32_t>(flat.inv_index));
  w.pod_span(std::span<const std::uint32_t>(flat.pos_leaf));
  w.vec3(flat.cube.lo);
  w.vec3(flat.cube.hi);
  w.u64(flat.params.leaf_capacity);
  w.i32(flat.params.max_depth);
  w.u64(flat.params.parallel_grain);
  w.i32(flat.height);
  w.u8(flat.strict ? 1 : 0);
}

constexpr std::size_t kEncodedNodeBytes = 4 * 4 + 3 + 4 * 8;

octree::Octree read_octree(Reader& r, const char* which) {
  octree::OctreeFlatData flat;
  const std::uint64_t num_nodes = r.u64();
  if (num_nodes > r.remaining() / kEncodedNodeBytes) {
    fail(CodecError::Kind::kTruncated,
         std::string(which) + ": node count exceeds remaining payload");
  }
  flat.nodes.resize(num_nodes);
  for (octree::Node& n : flat.nodes) {
    n.begin = r.u32();
    n.end = r.u32();
    n.parent = r.u32();
    n.children.first = r.u32();
    n.children.count = r.u8();
    n.depth = r.u8();
    n.leaf = r.boolean("node leaf flag");
    n.center = r.vec3();
    n.radius = r.f64();
  }
  flat.point_index = r.pod_vec<std::uint32_t>("octree point_index");
  flat.leaves = r.pod_vec<std::uint32_t>("octree leaves");
  flat.level_offset = r.pod_vec<std::uint32_t>("octree level_offset");
  flat.keys = r.pod_vec<std::uint64_t>("octree keys");
  flat.node_key_lo = r.pod_vec<std::uint64_t>("octree node_key_lo");
  flat.chunk_sums = r.pod_vec<geom::Vec3>("octree chunk_sums");
  flat.inv_index = r.pod_vec<std::uint32_t>("octree inv_index");
  flat.pos_leaf = r.pod_vec<std::uint32_t>("octree pos_leaf");
  flat.cube.lo = r.vec3();
  flat.cube.hi = r.vec3();
  flat.params.leaf_capacity = r.u64();
  flat.params.max_depth = r.i32();
  flat.params.parallel_grain = r.u64();
  flat.height = r.i32();
  flat.strict = r.boolean("octree strict flag");

  // Structural bounds: nothing a traversal dereferences may point
  // outside the decoded arrays. Geometric soundness (sphere
  // containment, Morton ordering) stays with analysis::validate_octree.
  const std::size_t n = flat.point_index.size();
  const std::size_t nodes = flat.nodes.size();
  if (flat.height < 0 || flat.height > octree::kMortonLevels) {
    fail(CodecError::Kind::kCorruptField,
         std::string(which) + ": height out of range");
  }
  for (const octree::Node& node : flat.nodes) {
    if (node.begin > node.end || node.end > n) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": node point range out of bounds");
    }
    if (node.children.count > 0 &&
        (node.leaf ||
         static_cast<std::size_t>(node.children.first) +
                 node.children.count >
             nodes)) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": child span out of bounds");
    }
    if (node.parent != octree::Node::kInvalid && node.parent >= nodes) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": parent id out of bounds");
    }
  }
  for (const std::uint32_t leaf : flat.leaves) {
    if (leaf >= nodes || !flat.nodes[leaf].leaf) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": leaf table entry is not a leaf node");
    }
  }
  for (const std::uint32_t idx : flat.point_index) {
    if (idx >= n) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": point_index entry out of bounds");
    }
  }
  for (const std::uint32_t idx : flat.inv_index) {
    if (idx >= n) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": inv_index entry out of bounds");
    }
  }
  for (const std::uint32_t leaf : flat.pos_leaf) {
    if (leaf >= nodes) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": pos_leaf entry out of bounds");
    }
  }
  for (std::size_t i = 1; i < flat.level_offset.size(); ++i) {
    if (flat.level_offset[i] < flat.level_offset[i - 1]) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": level index not monotone");
    }
  }
  try {
    return octree::Octree::from_flat(std::move(flat));
  } catch (const std::invalid_argument& e) {
    fail(CodecError::Kind::kCorruptField,
         std::string(which) + ": " + e.what());
  }
}

// ---- born octrees ----

void write_born_octrees(Writer& w, const gb::BornOctrees& trees) {
  write_octree(w, trees.atoms);
  write_octree(w, trees.qpoints);
  w.pod_span(std::span<const geom::Vec3>(trees.q_weighted_normal));
}

gb::BornOctrees read_born_octrees(Reader& r) {
  gb::BornOctrees trees;
  trees.atoms = read_octree(r, "atoms octree");
  trees.qpoints = read_octree(r, "qpoints octree");
  trees.q_weighted_normal = r.pod_vec<geom::Vec3>("q_weighted_normal");
  if (trees.q_weighted_normal.size() != trees.qpoints.num_nodes()) {
    fail(CodecError::Kind::kCorruptField,
         "q_weighted_normal size != qpoints node count");
  }
  return trees;
}

// ---- interaction plan ----

void write_pairs(Writer& w, const std::vector<gb::NodePair>& pairs) {
  w.pod_span(std::span<const gb::NodePair>(pairs));
}

void check_pairs(const std::vector<gb::NodePair>& pairs,
                 std::size_t target_limit, std::size_t source_limit,
                 const char* which) {
  for (const gb::NodePair& p : pairs) {
    if (p.target >= target_limit || p.source >= source_limit) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": pair id out of bounds");
    }
  }
}

void check_chunks(const std::vector<std::uint32_t>& chunks,
                  std::size_t list_size, const char* which) {
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i] > list_size || (i > 0 && chunks[i] < chunks[i - 1])) {
      fail(CodecError::Kind::kCorruptField,
           std::string(which) + ": chunk table not a monotone partition");
    }
  }
}

void write_plan(Writer& w, const gb::InteractionPlan* plan) {
  w.u8(plan != nullptr ? 1 : 0);
  if (plan == nullptr) return;
  write_pairs(w, plan->born_near);
  write_pairs(w, plan->born_far);
  write_pairs(w, plan->epol_near);
  write_pairs(w, plan->epol_far);
  w.pod_span(std::span<const std::uint32_t>(plan->born_near_chunks));
  w.pod_span(std::span<const std::uint32_t>(plan->born_far_chunks));
  w.pod_span(std::span<const std::uint32_t>(plan->epol_near_chunks));
  w.pod_span(std::span<const std::uint32_t>(plan->epol_far_chunks));
  w.u64(plan->scope.born_begin);
  w.u64(plan->scope.born_end);
  w.u64(plan->scope.epol_begin);
  w.u64(plan->scope.epol_end);
}

std::shared_ptr<const gb::InteractionPlan> read_plan(
    Reader& r, const gb::BornOctrees& trees) {
  if (!r.boolean("plan present flag")) return nullptr;
  auto plan = std::make_shared<gb::InteractionPlan>();
  plan->born_near = r.pod_vec<gb::NodePair>("born_near pairs");
  plan->born_far = r.pod_vec<gb::NodePair>("born_far pairs");
  plan->epol_near = r.pod_vec<gb::NodePair>("epol_near pairs");
  plan->epol_far = r.pod_vec<gb::NodePair>("epol_far pairs");
  plan->born_near_chunks = r.pod_vec<std::uint32_t>("born_near chunks");
  plan->born_far_chunks = r.pod_vec<std::uint32_t>("born_far chunks");
  plan->epol_near_chunks = r.pod_vec<std::uint32_t>("epol_near chunks");
  plan->epol_far_chunks = r.pod_vec<std::uint32_t>("epol_far chunks");
  gb::PlanScope& scope = plan->scope;
  scope.born_begin = r.u64();
  scope.born_end = r.u64();
  scope.epol_begin = r.u64();
  scope.epol_end = r.u64();
  if (scope.born_begin > scope.born_end ||
      scope.born_end > trees.qpoints.num_leaves() ||
      scope.epol_begin > scope.epol_end ||
      scope.epol_end > trees.atoms.num_leaves()) {
    fail(CodecError::Kind::kCorruptField, "plan scope outside the trees");
  }
  const std::size_t a_nodes = trees.atoms.num_nodes();
  const std::size_t a_leaves = trees.atoms.num_leaves();
  const std::size_t q_nodes = trees.qpoints.num_nodes();
  check_pairs(plan->born_near, a_nodes, q_nodes, "born_near");
  check_pairs(plan->born_far, a_nodes, q_nodes, "born_far");
  check_pairs(plan->epol_near, a_leaves, a_nodes, "epol_near");
  check_pairs(plan->epol_far, a_leaves, a_nodes, "epol_far");
  check_chunks(plan->born_near_chunks, plan->born_near.size(), "born_near");
  check_chunks(plan->born_far_chunks, plan->born_far.size(), "born_far");
  check_chunks(plan->epol_near_chunks, plan->epol_near.size(), "epol_near");
  check_chunks(plan->epol_far_chunks, plan->epol_far.size(), "epol_far");
  return plan;
}

// ---- shard telemetry ----

void write_telemetry(Writer& w, const ShardTelemetry& t) {
  w.u64(t.served);
  w.u64(t.failed);
  w.u64(t.cache_hits);
  w.u64(t.refits);
  w.u64(t.cold_builds);
  w.u64(t.serializations);
  w.u64(t.deserializations);
  w.u64(t.cache_entries);
  w.u64(t.cache_bytes);
  w.u64(t.queue_depth);
  w.f64(t.window_p99_s);
}

ShardTelemetry read_telemetry(Reader& r) {
  ShardTelemetry t;
  t.served = r.u64();
  t.failed = r.u64();
  t.cache_hits = r.u64();
  t.refits = r.u64();
  t.cold_builds = r.u64();
  t.serializations = r.u64();
  t.deserializations = r.u64();
  t.cache_entries = r.u64();
  t.cache_bytes = r.u64();
  t.queue_depth = r.u64();
  t.window_p99_s = r.f64();
  return t;
}

}  // namespace

CodecError::CodecError(Kind kind, const std::string& message)
    : std::runtime_error(std::string("codec: ") + kind_name(kind) + ": " +
                         message),
      kind_(kind) {}

Bytes encode_entry(const serve::CacheEntry& entry) {
  Writer w(PayloadKind::kCacheEntry);
  w.u64(entry.key);
  w.u64(entry.skey);
  w.pod_span(std::span<const geom::Vec3>(entry.positions));
  write_surface(w, *entry.surf);
  write_born_octrees(w, entry.trees);
  write_plan(w, entry.plan.get());
  w.pod_span(std::span<const double>(entry.born_radii));
  w.f64(entry.energy);
  w.u64(entry.num_qpoints);
  return w.finish();
}

std::shared_ptr<serve::CacheEntry> decode_entry(
    std::span<const std::byte> bytes) {
  Reader r(bytes, PayloadKind::kCacheEntry);
  auto entry = std::make_shared<serve::CacheEntry>();
  entry->key = r.u64();
  entry->skey = r.u64();
  entry->positions = r.pod_vec<geom::Vec3>("entry positions");
  entry->surf =
      std::make_shared<const surface::QuadratureSurface>(read_surface(r));
  entry->trees = read_born_octrees(r);
  entry->plan = read_plan(r, entry->trees);
  entry->born_radii = r.pod_vec<double>("entry born_radii");
  entry->energy = r.f64();
  entry->num_qpoints = r.u64();
  r.expect_done();
  // Cross-object invariants: the trees must actually index the
  // positions and surface they arrived with, or a refit against this
  // entry would read out of bounds.
  if (entry->trees.atoms.num_points() != entry->positions.size()) {
    fail(CodecError::Kind::kCorruptField,
         "atoms octree point count != position snapshot size");
  }
  if (entry->trees.qpoints.num_points() != entry->surf->size()) {
    fail(CodecError::Kind::kCorruptField,
         "qpoints octree point count != surface size");
  }
  if (entry->born_radii.size() != entry->positions.size()) {
    fail(CodecError::Kind::kCorruptField,
         "born_radii size != atom count");
  }
  return entry;
}

Bytes encode_request(const serve::Request& req, std::uint64_t ticket) {
  Writer w(PayloadKind::kRequest);
  w.u64(ticket);
  w.u64(req.id);
  write_molecule(w, req.mol);
  write_params(w, req.params);
  w.u8(static_cast<std::uint8_t>(req.tier));
  w.i64(req.deadline.time_since_epoch().count());
  w.u8(req.want_born_radii ? 1 : 0);
  return w.finish();
}

WireRequest decode_request(std::span<const std::byte> bytes) {
  Reader r(bytes, PayloadKind::kRequest);
  WireRequest wire;
  wire.ticket = r.u64();
  wire.request.id = r.u64();
  wire.request.mol = read_molecule(r);
  wire.request.params = read_params(r);
  const std::uint8_t tier = r.u8();
  if (tier > static_cast<std::uint8_t>(serve::Tier::kFast)) {
    fail(CodecError::Kind::kCorruptField,
         "tier code " + std::to_string(tier) + " out of range");
  }
  wire.request.tier = static_cast<serve::Tier>(tier);
  wire.request.deadline = std::chrono::steady_clock::time_point(
      std::chrono::steady_clock::duration(r.i64()));
  wire.request.want_born_radii = r.boolean("want_born_radii");
  r.expect_done();
  return wire;
}

Bytes encode_response(const WireResponse& resp) {
  Writer w(PayloadKind::kResponse);
  w.u64(resp.ticket);
  w.i32(resp.shard);
  const serve::Response& rp = resp.response;
  w.u64(rp.id);
  w.u8(static_cast<std::uint8_t>(rp.status));
  w.u8(static_cast<std::uint8_t>(rp.path));
  w.u8(rp.deadline_missed ? 1 : 0);
  w.f64(rp.energy);
  w.pod_span(std::span<const double>(rp.born_radii));
  w.u64(rp.num_qpoints);
  w.u64(rp.content_key);
  w.u8(rp.plan_reused ? 1 : 0);
  w.f64(rp.t_queue);
  w.f64(rp.t_build);
  w.f64(rp.t_refit);
  w.f64(rp.t_kernel);
  w.f64(rp.t_total);
  write_telemetry(w, resp.telemetry);
  return w.finish();
}

WireResponse decode_response(std::span<const std::byte> bytes) {
  Reader r(bytes, PayloadKind::kResponse);
  WireResponse resp;
  resp.ticket = r.u64();
  resp.shard = r.i32();
  serve::Response& rp = resp.response;
  rp.id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(serve::Status::kFailed)) {
    fail(CodecError::Kind::kCorruptField, "status code out of range");
  }
  rp.status = static_cast<serve::Status>(status);
  const std::uint8_t path = r.u8();
  if (path > static_cast<std::uint8_t>(serve::Path::kColdBuild)) {
    fail(CodecError::Kind::kCorruptField, "path code out of range");
  }
  rp.path = static_cast<serve::Path>(path);
  rp.deadline_missed = r.boolean("deadline_missed");
  rp.energy = r.f64();
  rp.born_radii = r.pod_vec<double>("response born_radii");
  rp.num_qpoints = r.u64();
  rp.content_key = r.u64();
  rp.plan_reused = r.boolean("plan_reused");
  rp.t_queue = r.f64();
  rp.t_build = r.f64();
  rp.t_refit = r.f64();
  rp.t_kernel = r.f64();
  rp.t_total = r.f64();
  resp.telemetry = read_telemetry(r);
  r.expect_done();
  return resp;
}

void patch_checksum(std::span<std::byte> frame) {
  if (frame.size() < kFrameOverheadBytes) return;
  const std::uint64_t sum =
      frame_checksum(frame.first(frame.size() - kChecksumBytes));
  std::memcpy(frame.data() + frame.size() - kChecksumBytes, &sum,
              sizeof sum);
}

}  // namespace octgb::cluster
