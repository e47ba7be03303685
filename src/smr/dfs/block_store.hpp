// HDFS-like block store: files are split into fixed-size blocks, each
// replicated on `replication` distinct nodes.  The MapReduce scheduler uses
// replica locations for locality-aware task placement (a node-local map task
// reads from local disk; a non-local one reads across the network).
//
// The paper's testbed hangs all 16 workers off one switch, i.e. a single
// rack, so the placement policy models HDFS's single-rack behaviour:
// `replication` distinct uniformly random nodes per block.
#pragma once

#include <cstdint>
#include <vector>

#include "smr/cluster/node.hpp"
#include "smr/common/rng.hpp"
#include "smr/common/types.hpp"

namespace smr::dfs {

using FileId = std::int32_t;
inline constexpr FileId kInvalidFile = -1;

struct Block {
  Bytes size = 0;
  /// Distinct nodes holding a replica; size == min(replication, nodes).
  std::vector<NodeId> replicas;

  bool has_replica_on(NodeId node) const {
    for (NodeId r : replicas) {
      if (r == node) return true;
    }
    return false;
  }
};

struct FileInfo {
  Bytes size = 0;
  std::vector<Block> blocks;
};

class BlockStore {
 public:
  /// `nodes` is the number of data nodes; `rng` seeds placement.
  BlockStore(int nodes, int replication, Rng rng);

  /// Create a file of `size` bytes split into `block_size` blocks (the last
  /// block holds the remainder).  Returns its id.
  FileId add_file(Bytes size, Bytes block_size);

  const FileInfo& file(FileId id) const;
  int replication() const { return replication_; }

  /// Bytes stored (all replicas) on each node; used to check placement
  /// balance.
  std::vector<Bytes> bytes_per_node() const;

 private:
  int nodes_;
  int replication_;
  Rng rng_;
  std::vector<FileInfo> files_;
};

}  // namespace smr::dfs
