#include "src/index/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "src/util/check.h"

namespace parsim {
namespace {

constexpr char kPointSetMagic[8] = {'P', 'S', 'I', 'M', 'P', 'T', 'S', '1'};
constexpr char kTreeMagic[8] = {'P', 'S', 'I', 'M', 'T', 'R', 'E', '1'};
constexpr std::uint32_t kFormatVersion = 1;

template <typename T>
void WriteRaw(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

bool CheckMagic(std::istream& in, const char (&magic)[8]) {
  char buffer[8];
  in.read(buffer, sizeof(buffer));
  return in && std::memcmp(buffer, magic, sizeof(buffer)) == 0;
}

void WriteRect(std::ostream& out, const Rect& rect) {
  for (std::size_t i = 0; i < rect.dim(); ++i) WriteRaw(out, rect.lo(i));
  for (std::size_t i = 0; i < rect.dim(); ++i) WriteRaw(out, rect.hi(i));
}

// Fails on a short read and on any bound that is not finite or not
// ordered: stored points are finite (every write path rejects NaN and
// ±inf), and a non-finite bound would reach the leaf-block and SQ8
// builds that LoadTree runs before it validates.
bool ReadRect(std::istream& in, std::size_t dim, Rect* rect) {
  std::vector<Scalar> lo(dim), hi(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    if (!ReadRaw(in, &lo[i])) return false;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    if (!ReadRaw(in, &hi[i])) return false;
  }
  if (!AllFinite(lo) || !AllFinite(hi)) return false;
  for (std::size_t i = 0; i < dim; ++i) {
    if (lo[i] > hi[i]) return false;
  }
  *rect = Rect(std::move(lo), std::move(hi));
  return true;
}

}  // namespace

Status WritePointSet(const PointSet& points, std::ostream& out) {
  out.write(kPointSetMagic, sizeof(kPointSetMagic));
  WriteRaw(out, kFormatVersion);
  WriteRaw(out, static_cast<std::uint64_t>(points.dim()));
  WriteRaw(out, static_cast<std::uint64_t>(points.size()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointView p = points[i];
    out.write(reinterpret_cast<const char*>(p.data()),
              static_cast<std::streamsize>(p.size() * sizeof(Scalar)));
  }
  if (!out) return Status::Internal("write failed");
  return Status::Ok();
}

Result<PointSet> ReadPointSet(std::istream& in) {
  if (!CheckMagic(in, kPointSetMagic)) {
    return Status::InvalidArgument("not a parsim point-set file");
  }
  std::uint32_t version = 0;
  std::uint64_t dim = 0, count = 0;
  if (!ReadRaw(in, &version) || version != kFormatVersion) {
    return Status::InvalidArgument("unsupported point-set format version");
  }
  if (!ReadRaw(in, &dim) || !ReadRaw(in, &count) || dim == 0) {
    return Status::InvalidArgument("corrupt point-set header");
  }
  // `count` is untrusted: nothing is reserved from it, so a corrupt
  // count ends in the short read below, never in a huge allocation.
  PointSet points(static_cast<std::size_t>(dim));
  Point p(static_cast<std::size_t>(dim));
  for (std::uint64_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(p.data()),
            static_cast<std::streamsize>(dim * sizeof(Scalar)));
    if (!in) return Status::InvalidArgument("truncated point-set file");
    points.Add(p);
  }
  return points;
}

Status SavePointSet(const PointSet& points, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  return WritePointSet(points, out);
}

Result<PointSet> LoadPointSet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return ReadPointSet(in);
}

Status SaveTree(const TreeBase& tree, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out.write(kTreeMagic, sizeof(kTreeMagic));
  WriteRaw(out, kFormatVersion);
  WriteRaw(out, static_cast<std::uint64_t>(tree.dim()));
  WriteRaw(out, static_cast<std::uint64_t>(tree.size()));
  WriteRaw(out, tree.root_id());

  // Count reachable nodes, then emit them in a root-first walk.
  std::vector<NodeId> reachable;
  if (tree.root_id() != kInvalidNodeId) {
    std::vector<NodeId> stack = {tree.root_id()};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      reachable.push_back(id);
      const Node& node = tree.PeekNode(id);
      if (!node.IsLeaf()) {
        for (const NodeEntry& e : node.entries) stack.push_back(e.child);
      }
    }
  }
  WriteRaw(out, static_cast<std::uint64_t>(reachable.size()));
  for (NodeId id : reachable) {
    const Node& node = tree.PeekNode(id);
    WriteRaw(out, node.id);
    WriteRaw(out, node.level);
    WriteRaw(out, node.pages);
    WriteRaw(out, node.split_history);
    WriteRaw(out, static_cast<std::uint64_t>(node.entries.size()));
    for (const NodeEntry& e : node.entries) {
      WriteRect(out, e.rect);
      WriteRaw(out, e.child);
    }
  }
  if (!out) return Status::Internal("write failed");
  return Status::Ok();
}

Status LoadTree(TreeBase* tree, const std::string& path) {
  PARSIM_CHECK(tree != nullptr);
  if (!tree->empty() || tree->root_id() != kInvalidNodeId) {
    return Status::FailedPrecondition("LoadTree requires an empty tree");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  if (!CheckMagic(in, kTreeMagic)) {
    return Status::InvalidArgument("not a parsim tree file");
  }
  std::uint32_t version = 0;
  std::uint64_t dim = 0, size = 0, node_count = 0;
  NodeId root = kInvalidNodeId;
  if (!ReadRaw(in, &version) || version != kFormatVersion) {
    return Status::InvalidArgument("unsupported tree format version");
  }
  if (!ReadRaw(in, &dim) || dim != tree->dim()) {
    return Status::InvalidArgument("tree dimensionality mismatch");
  }
  if (!ReadRaw(in, &size) || !ReadRaw(in, &root) || !ReadRaw(in, &node_count)) {
    return Status::InvalidArgument("corrupt tree header");
  }
  // Node ids index a dense table; size it to the maximum id seen.
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::uint64_t n = 0; n < node_count; ++n) {
    auto node = std::make_unique<Node>();
    std::uint64_t entries = 0;
    if (!ReadRaw(in, &node->id) || !ReadRaw(in, &node->level) ||
        !ReadRaw(in, &node->pages) || !ReadRaw(in, &node->split_history) ||
        !ReadRaw(in, &entries)) {
      return Status::InvalidArgument("corrupt node header");
    }
    if (node->level < 0 || node->pages == 0) {
      return Status::InvalidArgument("corrupt node fields");
    }
    // `entries` is untrusted: nothing is reserved from it, so a corrupt
    // count ends in a short read, never in a huge allocation.
    for (std::uint64_t e = 0; e < entries; ++e) {
      NodeEntry entry;
      if (!ReadRect(in, static_cast<std::size_t>(dim), &entry.rect) ||
          !ReadRaw(in, &entry.child)) {
        return Status::InvalidArgument("corrupt node entry");
      }
      node->entries.push_back(std::move(entry));
    }
    const std::size_t slot = node->id;
    if (slot >= nodes.size()) nodes.resize(slot + 1);
    if (nodes[slot] != nullptr) {
      return Status::InvalidArgument("duplicate node id");
    }
    nodes[slot] = std::move(node);
  }
  if (root != kInvalidNodeId &&
      (root >= nodes.size() || nodes[root] == nullptr)) {
    return Status::InvalidArgument("root id out of range");
  }
  // Unreferenced slots (dissolved nodes of the source tree) become empty
  // placeholder leaves so the dense id table stays valid. Directory
  // images and leaf blocks are derived state, not part of the format:
  // build them here, before validation compares them with their entries.
  for (auto& slot : nodes) {
    if (slot == nullptr) slot = std::make_unique<Node>();
    if (slot->IsLeaf()) {
      slot->block.BuildFrom(slot->entries, static_cast<std::size_t>(dim),
                            tree->quantized_leaf_blocks());
    } else {
      slot->image.BuildFrom(slot->entries, static_cast<std::size_t>(dim));
    }
  }
  tree->nodes_ = std::move(nodes);
  tree->root_ = root;
  tree->size_ = static_cast<std::size_t>(size);
  tree->ResetWriteState();
  tree->disk_->WritePages(node_count);
  Status valid = tree->ValidateInvariants();
  if (!valid.ok()) {
    tree->nodes_.clear();
    tree->root_ = kInvalidNodeId;
    tree->size_ = 0;
    return Status::InvalidArgument("loaded tree fails validation: " +
                                   valid.message());
  }
  return Status::Ok();
}

}  // namespace parsim
