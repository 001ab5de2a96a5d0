// End-to-end pipeline coverage through the Session API: quickstart
// acceptance numbers, config knobs, the estimation workloads (each one epoch
// of the caller's session, aggregating from curator-side PayloadArena
// slices, and refusing what would make the estimated run differ from the
// certified one), and the local-vs-central summation gap.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/session.h"
#include "dp/ldp.h"
#include "estimation/frequency_estimation.h"
#include "estimation/mean_estimation.h"
#include "estimation/summation.h"
#include "graph/generators.h"
#include "shuffle/backend.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

Session MakeSession(Graph g, ReportingProtocol protocol, size_t rounds = 0,
                    double epsilon0 = 1.0) {
  SessionConfig config;
  config.SetGraph(std::move(g))
      .SetProtocol(protocol)
      .SetRounds(rounds)
      .SetEpsilon0(epsilon0);
  Expected<Session> created = Session::Create(std::move(config));
  CHECK(created.ok());
  return std::move(created).value();
}

}  // namespace

int main() {
  // Quickstart acceptance: n=1000, k=8, eps0=1.0 must amplify.
  {
    Rng rng(2022);
    Graph g = MakeRandomRegular(1000, 8, &rng);
    Session session = MakeSession(std::move(g), ReportingProtocol::kAll);
    CHECK(session.spectral_gap() > 0.1);
    CHECK(session.target_rounds() >= 1);
    CHECK_NEAR(session.Gamma(), 1.0, 0.1);  // regular graph at mixing time

    const PrivacyParams central = session.TargetGuarantee(1.0);
    CHECK(std::isfinite(central.epsilon));
    CHECK(central.epsilon < 1.0);  // amplification factor > 1
    CHECK(central.epsilon > 0.0);
    CHECK(central.delta > 0.0);
    CHECK(central.delta < 1e-5);

    // Capping: at an absurd local budget the guarantee falls back to eps0.
    const PrivacyParams capped = session.TargetGuarantee(20.0);
    CHECK_NEAR(capped.epsilon, 20.0, 1e-12);

    // Raw vs capped agree in the amplifying regime.
    CHECK_NEAR(session.RawGuaranteeAt(session.target_rounds(), 1.0).epsilon,
               central.epsilon, 1e-12);

    CHECK(session.StepToTarget().ok());
    const ProtocolResult run = session.Finalize();
    CHECK(run.server_inbox.size() == 1000);
    CHECK(run.payloads != nullptr);  // arena rides along to the curator
  }

  // Config knobs: explicit rounds respected; kSingle wins at large eps0.
  {
    Rng rng(3);
    Graph g = MakeRandomRegular(2000, 8, &rng);
    Session fixed = MakeSession(Graph(g), ReportingProtocol::kAll, 7);
    CHECK(fixed.target_rounds() == 7);

    Session all = MakeSession(Graph(g), ReportingProtocol::kAll);
    Session single = MakeSession(Graph(g), ReportingProtocol::kSingle);
    CHECK(single.RawGuaranteeAt(single.target_rounds(), 4.0).epsilon <
          all.RawGuaranteeAt(all.target_rounds(), 4.0).epsilon);
  }

  // Mean estimation: the network protocols lose utility relative to the
  // trusted shuffler, and A_all beats A_single (dummies + drops).  A kMmap
  // session estimates bit-identically to the heap one.
  {
    Rng rng(5);
    Graph g = MakeRandomRegular(1500, 8, &rng);
    Session all_session =
        MakeSession(Graph(g), ReportingProtocol::kAll, 0, 2.0);
    Session single_session =
        MakeSession(Graph(g), ReportingProtocol::kSingle, 0, 2.0);
    MeanEstimationConfig cfg;
    cfg.dim = 32;
    cfg.seed = 17;
    const auto all = RunMeanEstimation(all_session, cfg);
    const auto single = RunMeanEstimation(single_session, cfg);
    CHECK(all.ok() && single.ok());
    const auto uniform = RunMeanEstimationUniformShuffle(1500, 2.0, cfg);

    CHECK(all.value().genuine_reports == 1500);
    CHECK(all.value().dropped_reports == 0);
    CHECK(single.value().genuine_reports + single.value().dummy_reports ==
          1500);
    CHECK(single.value().dropped_reports > 0);
    CHECK(std::isfinite(all.value().squared_error));
    CHECK(all.value().squared_error < single.value().squared_error);
    CHECK(uniform.squared_error < single.value().squared_error);

    SessionConfig mmap_config;
    StorageBackendConfig storage;
    storage.kind = StorageBackendKind::kMmap;
    mmap_config.SetGraph(Graph(g)).SetEpsilon0(2.0).SetStorage(storage);
    Expected<Session> mmap = Session::Create(std::move(mmap_config));
    CHECK(mmap.ok());
    const auto hosted = RunMeanEstimation(mmap.value(), cfg);
    CHECK(hosted.ok());
    CHECK(hosted.value().squared_error == all.value().squared_error);
  }

  // Frequency estimation (k-RR bucket payloads): kAll recovers the skewed
  // distribution within a sane L1 budget, the delivered count accounting
  // matches the protocol semantics, and the estimated run is the certified
  // run: one epoch to target_rounds(), the session's own guarantee, and an
  // estimate the session's inbox reproduces.
  {
    Rng rng(7);
    Graph g = MakeRandomRegular(2000, 8, &rng);
    Session session = MakeSession(Graph(g), ReportingProtocol::kAll, 0, 3.0);
    FrequencyEstimationConfig cfg;
    cfg.categories = 8;
    cfg.seed = 23;
    const size_t epoch = session.epoch();
    const auto estimated = RunFrequencyEstimation(session, cfg);
    CHECK(estimated.ok());
    const FrequencyEstimationResult& all = estimated.value();
    CHECK(session.epoch() == epoch + 1);
    CHECK(session.current_round() == session.target_rounds());
    const PrivacyParams certified = session.Guarantee();
    CHECK(all.guarantee.epsilon == certified.epsilon);
    CHECK(all.guarantee.delta == certified.delta);
    const ProtocolResult inbox = session.FinalizeEpoch();
    std::vector<uint64_t> counts(cfg.categories, 0);
    for (const FinalReport& fr : inbox.server_inbox) {
      ++counts[inbox.payloads->BucketAt(fr.id)];
    }
    const KRandomizedResponse rr(cfg.categories, session.epsilon0());
    CHECK(rr.DebiasCounts(counts, inbox.server_inbox.size()) == all.estimate);

    CHECK(all.genuine_reports == 2000);
    CHECK(all.dropped_reports == 0);
    CHECK(all.estimate.size() == 8);
    double truth_mass = 0.0;
    for (double f : all.true_frequency) truth_mass += f;
    CHECK_NEAR(truth_mass, 1.0, 1e-9);
    CHECK(std::isfinite(all.l1_error));
    CHECK(all.l1_error < 0.2);  // eps0=3, n=2000: comfortably recoverable

    Session single_session =
        MakeSession(Graph(g), ReportingProtocol::kSingle, 0, 3.0);
    const auto single = RunFrequencyEstimation(single_session, cfg);
    CHECK(single.ok());
    CHECK(single.value().genuine_reports + single.value().dummy_reports ==
          2000);
    CHECK(single.value().dropped_reports > 0);
    // Dummies + drops cost utility, same shape as the mean workload.
    CHECK(all.l1_error < single.value().l1_error);
  }

  // Network summation over scalar payloads: unbiased-ish at kAll (every
  // report delivered), error well under the local-model worst case.
  {
    Rng rng(11);
    Graph g = MakeRandomRegular(4000, 8, &rng);
    std::vector<double> values(4000);
    for (double& v : values) v = rng.UniformDouble();
    Session session = MakeSession(std::move(g), ReportingProtocol::kAll, 20);
    const auto net = SummationOverNetwork(session, values, 0.0, 1.0, 99);
    CHECK(net.ok());
    CHECK(net.value().delivered_reports == 4000);
    CHECK(net.value().true_sum > 1500.0 && net.value().true_sum < 2500.0);
    // n * Var(Laplace(1/eps0)) = 2n: |err| < 5 sigma = 5 sqrt(8000).
    CHECK(std::fabs(net.value().estimate - net.value().true_sum) <
          5.0 * std::sqrt(2.0 * 4000.0));
    CHECK(net.value().guarantee.epsilon == session.Guarantee().epsilon);
  }

  // Refusals are typed and leave the session as found: pending reports
  // (they would join the estimator's epoch), zero frequency categories,
  // and for the summation a kSingle session (its sum is unbiased only if
  // every report arrives) or a value count other than the population.
  {
    Rng rng(13);
    Graph g = MakeRandomRegular(500, 8, &rng);
    Session session = MakeSession(Graph(g), ReportingProtocol::kAll);
    CHECK(session.Step(3).ok());
    CHECK(session.Ingest(0, Bytes{7}).ok());
    const std::vector<double> values(500, 0.5);
    const auto unchanged = [&session] {
      CHECK(session.pending_reports() == 1);
      CHECK(session.epoch() == 0);
      CHECK(session.current_round() == 3);
    };
    CHECK(RunMeanEstimation(session, MeanEstimationConfig{})
              .status()
              .code() == StatusCode::kInvalidArgument);
    unchanged();
    CHECK(RunFrequencyEstimation(session, FrequencyEstimationConfig{})
              .status()
              .code() == StatusCode::kInvalidArgument);
    unchanged();
    CHECK(SummationOverNetwork(session, values, 0.0, 1.0, 1).status().code() ==
          StatusCode::kInvalidArgument);
    unchanged();

    session.DiscardPending();
    FrequencyEstimationConfig no_categories;
    no_categories.categories = 0;
    CHECK(RunFrequencyEstimation(session, no_categories).status().code() ==
          StatusCode::kInvalidArgument);
    CHECK(SummationOverNetwork(session, std::vector<double>(499, 0.5), 0.0,
                               1.0, 1)
              .status()
              .code() == StatusCode::kInvalidArgument);
    Session single = MakeSession(Graph(g), ReportingProtocol::kSingle);
    CHECK(SummationOverNetwork(single, values, 0.0, 1.0, 1).status().code() ==
          StatusCode::kInvalidArgument);
    for (const Session* s : {&session, &single}) {
      CHECK(s->pending_reports() == 0);
      CHECK(s->epoch() == 0);
    }
  }

  // Summation: the local model pays ~sqrt(n) over central.
  {
    Rng rng(9);
    std::vector<double> values(10000, 0.0);
    for (size_t i = 0; i < values.size() / 2; ++i) values[i] = 1.0;
    const double central = SummationRmse(values, 0.5, true, 300, &rng);
    const double local = SummationRmse(values, 0.5, false, 300, &rng);
    const double ratio = local / central;
    CHECK(ratio > 0.3 * std::sqrt(10000.0));
    CHECK(ratio < 3.0 * std::sqrt(10000.0));
  }
  return 0;
}
