#include "crypto/batch_verify.hpp"

#include <vector>

namespace ebv::crypto {

BatchVerifyStats verify_batch(std::span<const VerifyJob> jobs, bool* verdicts) {
    using secp256k1::kGroupOrder;
    using secp256k1::Scalar;
    BatchVerifyStats stats;
    stats.checked = jobs.size();

    // Stage 1: the same early rejects as PublicKey::verify, collecting the
    // s values of surviving jobs for one shared inversion.
    std::vector<std::size_t> live;
    std::vector<Scalar> s_inv;
    live.reserve(jobs.size());
    s_inv.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        verdicts[i] = false;
        const VerifyJob& job = jobs[i];
        if (!job.key.valid()) continue;
        if (job.sig.r.is_zero() || job.sig.s.is_zero()) continue;
        if (!u256_less(job.sig.r, kGroupOrder) || !u256_less(job.sig.s, kGroupOrder)) continue;
        live.push_back(i);
        s_inv.push_back(Scalar(job.sig.s));
    }
    if (s_inv.size() > 1) stats.inversions_saved = s_inv.size() - 1;
    secp256k1::batch_inverse(s_inv);

    // Stage 2: u1 = z·s⁻¹, u2 = r·s⁻¹, and the Jacobian r-check per job.
    for (std::size_t k = 0; k < live.size(); ++k) {
        const VerifyJob& job = jobs[live[k]];
        const Scalar z(U256::from_be_bytes(job.digest.span()));
        const Scalar r(job.sig.r);
        if (secp256k1::double_multiply_x_matches(job.key.point(), z * s_inv[k], r * s_inv[k],
                                                 r)) {
            verdicts[live[k]] = true;
            ++stats.accepted;
        }
    }
    return stats;
}

}  // namespace ebv::crypto
