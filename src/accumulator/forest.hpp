// A Utreexo-style dynamic hash accumulator (Dryja, "Utreexo: a dynamic
// hash-based accumulator optimized for the bitcoin UTXO set") — the
// related-work baseline of paper §VII-B. The UTXO set is represented as a
// forest of perfect Merkle trees (one per set bit of the leaf count, like a
// binary counter); a stateless validator stores only the O(log n) roots and
// verifies membership proofs carried by transactions.
//
// Additions follow the standard carry rule. Deletions use swap-with-last:
// the forest's rightmost leaf replaces the deleted leaf and hashes are
// recomputed along its path (same asymptotics and, crucially, the same
// proof-churn behaviour the paper criticizes: other leaves' proofs go stale
// whenever the forest reshapes). A "bridge" (this full structure) keeps all
// nodes so it can serve fresh proofs — also as in Utreexo deployments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/hash_types.hpp"

namespace ebv::accumulator {

/// A membership proof: the leaf's sibling hashes bottom-up plus, per level,
/// whether the sibling sits to the left. Folding must land on a current
/// forest root.
struct ForestProof {
    crypto::Hash256 leaf;
    std::vector<std::pair<crypto::Hash256, bool>> siblings;  // (hash, sibling_is_left)

    [[nodiscard]] std::size_t byte_size() const { return 32 + siblings.size() * 33; }
};

class MerkleForest {
public:
    using LeafId = std::uint64_t;

    MerkleForest() = default;
    ~MerkleForest();

    MerkleForest(const MerkleForest&) = delete;
    MerkleForest& operator=(const MerkleForest&) = delete;

    /// Insert a leaf; returns a stable handle for later proofs/removal.
    LeafId add(const crypto::Hash256& leaf_hash);

    /// Remove a leaf. Returns false for unknown/already-removed handles.
    bool remove(LeafId id);

    /// Build a (currently fresh) membership proof.
    [[nodiscard]] std::optional<ForestProof> prove(LeafId id) const;

    /// Stateless-validator check: does the proof fold onto a current root?
    [[nodiscard]] bool verify(const ForestProof& proof) const;

    /// The accumulator state a stateless node stores.
    [[nodiscard]] std::vector<crypto::Hash256> roots() const;
    [[nodiscard]] std::size_t root_count() const { return roots_.size(); }
    /// Bytes of that state (the EBV-vs-accumulator memory comparison).
    [[nodiscard]] std::size_t state_bytes() const { return roots_.size() * 32; }

    [[nodiscard]] std::uint64_t leaf_count() const { return leaf_map_.size(); }

    /// Monotone counter bumped whenever existing proofs may have gone
    /// stale (any structural change). Proof holders compare generations to
    /// know when to refresh — the "update your proofs every block" burden.
    [[nodiscard]] std::uint64_t generation() const { return generation_; }

private:
    struct Node {
        crypto::Hash256 hash;
        Node* parent = nullptr;
        std::unique_ptr<Node> left;
        std::unique_ptr<Node> right;
        LeafId leaf_id = 0;  // leaves only

        [[nodiscard]] bool is_leaf() const { return !left && !right; }
    };

    static crypto::Hash256 join_hash(const crypto::Hash256& l, const crypto::Hash256& r);

    /// Merge two equal-height trees into one (carry step).
    std::unique_ptr<Node> join(std::unique_ptr<Node> l, std::unique_ptr<Node> r);

    /// Remove the rightmost leaf of the lowest tree; left-spine subtrees
    /// become roots. Returns the detached leaf node.
    std::unique_ptr<Node> pop_last_leaf();

    void recompute_upward(Node* node);
    void insert_root(int height, std::unique_ptr<Node> root);

    // Roots by tree height; at most one per height (binary-counter shape).
    std::map<int, std::unique_ptr<Node>> roots_;
    std::unordered_map<LeafId, Node*> leaf_map_;
    LeafId next_id_ = 1;
    std::uint64_t generation_ = 0;
};

}  // namespace ebv::accumulator
