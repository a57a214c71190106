// The benchmark's machine-speed yardstick: a frozen copy of the ECDSA
// verification arithmetic in src/crypto (secp256k1 over 4x64-bit limbs,
// folding reduction, Strauss/Shamir wNAF double multiply), compiled from
// this directory so that no change to the program changes its cost.
//
// Why it exists: the benchmark runs on shared virtual machines whose speed
// drifts by up to 40 % over minutes, and moves every timing of a run alike.
// The benchmark runs the yardstick after each timed pass and scales the
// run's pass times to a machine on which one yardstick verify takes
// kNominalVerifyUs (perfbench/README.md, "Machine-speed scaling").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// One verification job as little-endian 64-bit limbs: the signer's affine
/// public key (x, y), the message digest z (reduced mod n by verify), and
/// the signature (r, s).
struct YardstickJob {
    std::array<std::uint64_t, 4> x, y, z, r, s;
};

/// The time one yardstick verify takes on the reference machine, per thread
/// with every slot busy: its median on a quiet 4-vCPU Xeon (2.1 GHz) VM.
inline constexpr double kNominalVerifyUs = 500.0;

/// True when (r, s) is a valid signature of z under (x, y).
bool yardstick_verify(const YardstickJob& job);

struct YardstickSample {
    double wall_us = 0;  ///< wall time of the whole sample
    bool sound = true;   ///< every verify returned true
};

/// Run `verifies` verifies on each of `threads` threads at once, cycling
/// through `jobs`.
YardstickSample measure_yardstick(std::span<const YardstickJob> jobs, std::size_t threads,
                                  std::size_t verifies);

}  // namespace perfbench
