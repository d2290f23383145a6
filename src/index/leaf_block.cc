#include "src/index/leaf_block.h"

#include "src/util/check.h"

namespace parsim {

void LeafBlock::BuildFrom(const Node& leaf, std::size_t dimension,
                          bool quantize) {
  PARSIM_DCHECK(leaf.IsLeaf());
  count = leaf.entries.size();
  dim = dimension;
  coords.resize(count * dim);
  ids.resize(count);
  leaf.GatherLeafCoords(dim, coords.data());
  for (std::size_t i = 0; i < count; ++i) ids[i] = leaf.entries[i].child;
  has_sq8 = quantize;
  if (quantize) {
    sq8.BuildFrom(coords.data(), count, dim);
  } else {
    sq8 = Sq8Mirror{};
  }
}

void LeafBlockCache::Grow(std::size_t num_nodes) {
  while (slots_.size() < num_nodes) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

void LeafBlockCache::Invalidate(std::size_t num_nodes) {
  ++epoch_;
  Grow(num_nodes);
}

void LeafBlockCache::Invalidate(const std::vector<NodeId>& leaves,
                                std::size_t num_nodes) {
  Grow(num_nodes);
  for (const NodeId id : leaves) {
    slots_[id]->built_epoch.store(0, std::memory_order_relaxed);
  }
}

const LeafBlock& LeafBlockCache::Get(const Node& leaf,
                                     std::size_t dim) const {
  PARSIM_DCHECK(leaf.IsLeaf());
  PARSIM_CHECK(leaf.id < slots_.size());
  Slot& slot = *slots_[leaf.id];
  if (slot.built_epoch.load(std::memory_order_acquire) == epoch_) {
    return slot.block;
  }
  std::lock_guard<std::mutex> lock(slot.build_mutex);
  if (slot.built_epoch.load(std::memory_order_relaxed) != epoch_) {
    slot.block.BuildFrom(leaf, dim, quantize_);
    slot.built_epoch.store(epoch_, std::memory_order_release);
  }
  return slot.block;
}

}  // namespace parsim
