// Closed-form privacy-amplification bounds.
//
// Network shuffling (the paper's Theorems 5.3-5.5): after t rounds of random
// walking, the adversary's uncertainty about a report's origin is summarized
// by the collision mass sum_v P_v(t)^2 of its position distribution.  The
// central epsilon certified for an eps0-LDP report scales as
// sqrt(sum P^2) ~ sqrt(Gamma_G / n), suppressing log factors:
//
//   A_all     O(e^{1.5 eps0} sqrt(Gamma/n))     (Thm 5.3 / 5.4)
//   A_single  O(e^{0.5 eps0} sqrt(Gamma/n))     (Thm 5.5; no per-round
//                                                composition factor)
//
// The uniform-shuffling baselines (EFMRT, stronger "clones" analysis) and
// subsampling are included for the Table-1 comparison.  All bounds return
// +infinity outside their validity regime; callers cap against the trivial
// eps0 guarantee (see core/session.h Session::GuaranteeAt).

#ifndef NETSHUFFLE_DP_AMPLIFICATION_H_
#define NETSHUFFLE_DP_AMPLIFICATION_H_

#include <cstddef>

namespace netshuffle {

struct NetworkShufflingBoundInput {
  /// Local DP budget of each report's randomizer.
  double epsilon0 = 1.0;
  /// Number of participating users (= reports).
  size_t n = 0;
  /// sum_v P_v(t)^2 for the victim report's position distribution — either
  /// the exact value (graph/walk.h PositionDistribution::SumSquares) or the
  /// geometric bound (graph/walk.h SumSquaresBound).
  double sum_p_squares = 0.0;
  /// Slack spent on the amplification / composition argument.
  double delta = 0.5e-6;
  /// Slack spent on the report-size concentration argument.
  double delta2 = 0.5e-6;
  /// max_v P_v / pi_v; only the exact symmetric bound (Thm 5.4) reads it.
  double rho_star = 1.0;
};

/// Theorem 5.3: A_all at the stationary-limit operating point, evaluated at
/// a collision mass `sum_p_squares` that bounds the victim's sum P^2 (for
/// the worst origin on any graph: graph/walk.h SumSquaresBound).
/// (eps, delta + delta2)-DP.
double EpsilonAllStationary(const NetworkShufflingBoundInput& in);

/// Theorem 5.4: A_all with exact symmetric position tracking; tighter than
/// EpsilonAllStationary at finite t when the exact sum P^2 (and rho*) are
/// known.  Coincides with the stationary bound at rho* = 1 up to the
/// concentration inflation.
double EpsilonAllSymmetric(const NetworkShufflingBoundInput& in);

/// Theorem 5.5: the A_single protocol (each user submits one held report).
/// Lacks A_all's per-round composition factor, so it wins at large eps0.
double EpsilonSingle(const NetworkShufflingBoundInput& in);

/// Amplification by uniform subsampling with sampling rate q:
/// log(1 + q (e^{eps0} - 1)).
double EpsilonSubsampling(double epsilon0, double q);

/// Erlingsson et al. (SODA'19) uniform-shuffling bound
/// 12 eps0 sqrt(log(1/delta)/n); requires eps0 < 1/2 (else +inf).
double EpsilonUniformShufflingEFMRT(double epsilon0, size_t n, double delta);

/// Feldman-McMillan-Talwar "hiding among clones" uniform-shuffling bound;
/// requires eps0 <= log(n / (16 log(2/delta))) (else +inf).
double EpsilonUniformShufflingClones(double epsilon0, size_t n, double delta);

/// Inverse accountant: the largest eps0 whose A_all stationary guarantee
/// stays at or below `central_target`.  Used to pick the local budget that a
/// network-shuffled deployment can afford.
double MaxLocalEpsilonForCentralTarget(double central_target, size_t n,
                                       double sum_p_squares, double delta,
                                       double delta2);

}  // namespace netshuffle

#endif  // NETSHUFFLE_DP_AMPLIFICATION_H_
