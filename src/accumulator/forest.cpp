#include "accumulator/forest.hpp"

#include "crypto/sha256.hpp"
#include "util/assert.hpp"

namespace ebv::accumulator {

MerkleForest::~MerkleForest() = default;  // unique_ptr trees free recursively

crypto::Hash256 MerkleForest::join_hash(const crypto::Hash256& l,
                                        const crypto::Hash256& r) {
    crypto::Sha256 h;
    h.update(l.span());
    h.update(r.span());
    const auto once = h.finalize();
    return crypto::Hash256::from_span(
        util::ByteSpan{crypto::Sha256::hash({once.data(), once.size()}).data(), 32});
}

std::unique_ptr<MerkleForest::Node> MerkleForest::join(std::unique_ptr<Node> l,
                                                       std::unique_ptr<Node> r) {
    auto parent = std::make_unique<Node>();
    parent->hash = join_hash(l->hash, r->hash);
    l->parent = parent.get();
    r->parent = parent.get();
    parent->left = std::move(l);
    parent->right = std::move(r);
    return parent;
}

MerkleForest::LeafId MerkleForest::add(const crypto::Hash256& leaf_hash) {
    auto leaf = std::make_unique<Node>();
    leaf->hash = leaf_hash;
    leaf->leaf_id = next_id_++;
    leaf_map_[leaf->leaf_id] = leaf.get();
    const LeafId id = leaf->leaf_id;

    // Binary-counter carry.
    std::unique_ptr<Node> carry = std::move(leaf);
    int height = 0;
    for (;;) {
        const auto it = roots_.find(height);
        if (it == roots_.end()) break;
        std::unique_ptr<Node> existing = std::move(it->second);
        roots_.erase(it);
        carry = join(std::move(existing), std::move(carry));
        ++height;
    }
    carry->parent = nullptr;
    roots_.emplace(height, std::move(carry));

    ++generation_;
    return id;
}

std::unique_ptr<MerkleForest::Node> MerkleForest::pop_last_leaf() {
    EBV_EXPECTS(!roots_.empty());
    const auto it = roots_.begin();  // lowest height
    int height = it->first;
    std::unique_ptr<Node> tree = std::move(it->second);
    roots_.erase(it);

    // Walk the right spine; each left child becomes a root one level down.
    while (!tree->is_leaf()) {
        --height;
        std::unique_ptr<Node> left = std::move(tree->left);
        std::unique_ptr<Node> right = std::move(tree->right);
        left->parent = nullptr;
        right->parent = nullptr;
        insert_root(height, std::move(left));
        tree = std::move(right);
    }
    return tree;
}

void MerkleForest::insert_root(int height, std::unique_ptr<Node> root) {
    // Heights freed by pop_last_leaf are always vacant: the popped tree was
    // the *lowest* root, so no smaller trees exist to collide with.
    root->parent = nullptr;
    const auto [it, inserted] = roots_.emplace(height, std::move(root));
    EBV_ASSERT(inserted);
}

void MerkleForest::recompute_upward(Node* node) {
    for (Node* cur = node->parent; cur != nullptr; cur = cur->parent) {
        cur->hash = join_hash(cur->left->hash, cur->right->hash);
    }
}

bool MerkleForest::remove(LeafId id) {
    const auto it = leaf_map_.find(id);
    if (it == leaf_map_.end()) return false;
    Node* doomed = it->second;

    // Detach the forest's rightmost leaf (from the lowest tree).
    std::unique_ptr<Node> last = pop_last_leaf();

    if (last->leaf_id == id) {
        // The doomed leaf *was* the rightmost one: we are done.
        leaf_map_.erase(it);
        ++generation_;
        return true;
    }

    // Substitute the popped leaf into the doomed leaf's slot and rehash the
    // path. (The doomed node object is reused as the slot.)
    leaf_map_.erase(it);
    doomed->hash = last->hash;
    doomed->leaf_id = last->leaf_id;
    leaf_map_[doomed->leaf_id] = doomed;
    recompute_upward(doomed);

    ++generation_;
    return true;
}

std::optional<ForestProof> MerkleForest::prove(LeafId id) const {
    const auto it = leaf_map_.find(id);
    if (it == leaf_map_.end()) return std::nullopt;

    ForestProof proof;
    proof.leaf = it->second->hash;
    for (const Node* cur = it->second; cur->parent != nullptr; cur = cur->parent) {
        const Node* parent = cur->parent;
        const bool sibling_is_left = parent->right.get() == cur;
        const Node* sibling =
            sibling_is_left ? parent->left.get() : parent->right.get();
        proof.siblings.emplace_back(sibling->hash, sibling_is_left);
    }
    return proof;
}

bool MerkleForest::verify(const ForestProof& proof) const {
    crypto::Hash256 acc = proof.leaf;
    for (const auto& [sibling, sibling_is_left] : proof.siblings) {
        acc = sibling_is_left ? join_hash(sibling, acc) : join_hash(acc, sibling);
    }
    for (const auto& [height, root] : roots_) {
        if (root->hash == acc) return true;
    }
    return false;
}

std::vector<crypto::Hash256> MerkleForest::roots() const {
    std::vector<crypto::Hash256> out;
    out.reserve(roots_.size());
    for (const auto& [height, root] : roots_) out.push_back(root->hash);
    return out;
}

}  // namespace ebv::accumulator
