#include "driver.hh"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "abr/bba.hh"
#include "abr/mpc_abr.hh"
#include "abr/throughput_predictors.hh"
#include "exp/session_task.hh"
#include "fugu/batch_ttp.hh"
#include "media/channel.hh"
#include "media/vbr_source.hh"
#include "net/bbr.hh"
#include "net/tcp_sender.hh"
#include "sim/session.hh"
#include "sim/user_model.hh"

namespace perfbench {

namespace {

using puffer::Rng;
namespace abr = puffer::abr;
namespace exp = puffer::exp;
namespace net = puffer::net;
namespace sim = puffer::sim;

Ledger* ledger_of(Tracer* tracer) {
  return tracer != nullptr ? &tracer->ledger : nullptr;
}

std::unique_ptr<abr::AbrAlgorithm> make_mpc(
    const std::string& name, std::unique_ptr<abr::TxTimePredictor> predictor,
    const abr::MpcConfig& mpc, Tracer* tracer) {
  if (tracer != nullptr) {
    predictor = std::make_unique<TimedPredictor>(
        std::move(predictor), tracer->ledger, tracer->counts,
        mpc.prune_probability);
  }
  return std::make_unique<abr::MpcAbr>(name, std::move(predictor), mpc);
}

/// One session, in the order exp::SessionTask performs it with the fault
/// plane disabled: the same RNG draws at the same positions.
void run_session(const exp::SessionPlan& plan, abr::AbrAlgorithm& algo,
                 const exp::TrialConfig& config, exp::SchemeResult& result,
                 Tracer* tracer) {
  Ledger* const ledger = ledger_of(tracer);
  result.consort.sessions++;
  if (plan.session.incompatible_or_bounce) {
    result.consort.streams++;
    result.consort.never_began++;
    return;
  }
  Rng run_rng{plan.run_seed};
  algo.reset_session();
  std::unique_ptr<net::CongestionControl> cc =
      std::make_unique<net::BbrModel>();
  if (tracer != nullptr) {
    cc = std::make_unique<TimedCc>(std::move(cc), tracer->ledger,
                                   tracer->counts);
  }
  net::TcpSender sender{*plan.path, std::move(cc),
                        net::TcpSender::default_queue_capacity(*plan.path)};
  {
    const Scope scope{ledger, Layer::kNetTransfer};
    sim::send_preamble(sender);
  }
  double session_duration_s = 0.0;
  bool any_considered = false;
  for (int k = 0; k < plan.session.num_streams; k++) {
    const auto index = static_cast<size_t>(k);
    std::optional<puffer::media::VbrVideoSource> video;
    std::optional<sim::StreamSession> stream;
    {
      const Scope scope{ledger, Layer::kMediaSource};
      video.emplace(puffer::media::default_channels()[static_cast<size_t>(
                        plan.channels[index])],
                    plan.video_seeds[index]);
      stream.emplace(sender, algo, *video, /*first_chunk=*/0,
                     plan.stream_behaviors[index], run_rng, config.stream,
                     nullptr);
    }
    for (;;) {
      bool decision = false;
      {
        const Scope scope{ledger, Layer::kSimPrepare};
        decision = stream->prepare_chunk();
      }
      if (!decision) {
        break;
      }
      const Scope scope{ledger, Layer::kNetTransfer};
      stream->finish_chunk();
    }
    exp::detail::fold_stream_outcome(stream->take_outcome(), run_rng, config,
                                     result, session_duration_s,
                                     any_considered);
  }
  if (any_considered) {
    result.session_durations_s.push_back(session_duration_s);
  }
}

}  // namespace

std::unique_ptr<abr::AbrAlgorithm> make_scheme(
    const std::string& name, const exp::SchemeArtifacts& artifacts,
    const abr::MpcConfig& mpc, Tracer* tracer) {
  std::unique_ptr<abr::AbrAlgorithm> algo;
  if (name == "BBA") {
    algo = std::make_unique<abr::Bba>();
  } else if (name == "MPC-HM") {
    algo = make_mpc(name, std::make_unique<abr::HarmonicMeanPredictor>(), mpc,
                    tracer);
  } else if (name == "RobustMPC-HM") {
    algo = make_mpc(name, std::make_unique<abr::RobustThroughputPredictor>(),
                    mpc, tracer);
  } else if (name == "Fugu") {
    if (artifacts.ttp_insitu == nullptr) {
      throw std::invalid_argument("make_scheme: Fugu requires an in-situ TTP");
    }
    algo = make_mpc(name,
                    std::make_unique<puffer::fugu::BatchTtpPredictor>(
                        artifacts.ttp_insitu, /*point_estimate=*/false),
                    mpc, tracer);
  } else {
    throw std::invalid_argument("make_scheme: unsupported scheme '" + name +
                                "'");
  }
  if (tracer != nullptr) {
    algo = std::make_unique<TimedAbr>(std::move(algo), tracer->ledger);
  }
  return algo;
}

namespace {

/// Plans [begin, end) of the trial, in order, with schemes of their own.
exp::TrialResult drive_range(const exp::TrialConfig& config,
                             const exp::SchemeArtifacts& artifacts,
                             const abr::MpcConfig& mpc, Tracer* tracer,
                             const int64_t begin, const int64_t end) {
  Ledger* const ledger = ledger_of(tracer);
  std::unique_ptr<net::PathGenerator> paths =
      net::make_path_generator(config.scenario);
  if (tracer != nullptr) {
    paths = std::make_unique<TimedPathGenerator>(
        std::move(paths), tracer->ledger, tracer->counts);
  }
  const sim::UserModel users{config.seed};
  const Rng master{config.seed};

  std::vector<std::unique_ptr<abr::AbrAlgorithm>> algorithms;
  for (const std::string& name : config.schemes) {
    algorithms.push_back(make_scheme(name, artifacts, mpc, tracer));
  }
  exp::TrialResult trial;
  trial.schemes = exp::detail::empty_scheme_results(config);
  const auto num_schemes = static_cast<int64_t>(config.schemes.size());
  for (int64_t s = begin; s < end; s++) {
    if (ledger != nullptr) {
      ledger->set_session(static_cast<int32_t>(s));
    }
    Rng session_rng = master.split(static_cast<uint64_t>(s));
    std::optional<exp::SessionPlan> plan;
    {
      const Scope scope{ledger, Layer::kSimPlan};
      plan.emplace(exp::make_session_plan(session_rng, users, *paths));
    }
    if (config.paired_paths) {
      for (int64_t a = 0; a < num_schemes; a++) {
        const auto i = static_cast<size_t>(a);
        run_session(*plan, *algorithms[i], config, trial.schemes[i], tracer);
      }
    } else {
      const auto i = static_cast<size_t>(
          session_rng.uniform_int(0, num_schemes - 1));
      run_session(*plan, *algorithms[i], config, trial.schemes[i], tracer);
    }
  }
  return trial;
}

void require_fault_free(const exp::TrialConfig& config) {
  if (config.faults.enabled) {
    throw std::invalid_argument(
        "run_driver_trial: the fault plane is not mirrored");
  }
}

}  // namespace

exp::TrialResult run_driver_trial(const exp::TrialConfig& config,
                                  const exp::SchemeArtifacts& artifacts,
                                  const abr::MpcConfig& mpc, Tracer* tracer) {
  require_fault_free(config);
  return drive_range(config, artifacts, mpc, tracer, 0,
                     exp::detail::num_session_plans(config));
}

exp::TrialResult run_driver_trial_parallel(
    const exp::TrialConfig& config, const exp::SchemeArtifacts& artifacts,
    const abr::MpcConfig& mpc, const int threads, int64_t& decisions) {
  require_fault_free(config);
  const int64_t plans = exp::detail::num_session_plans(config);
  const auto n = static_cast<size_t>(std::max(1, threads));
  std::vector<exp::TrialResult> parts(n);
  std::vector<Tracer> counters;
  for (size_t w = 0; w < n; w++) {
    counters.emplace_back(/*keep_spans=*/false);
  }
  std::vector<std::exception_ptr> errors(n);
  {
    std::vector<std::jthread> workers;
    for (size_t w = 0; w < n; w++) {
      workers.emplace_back([&, w] {
        const auto size = static_cast<int64_t>(n);
        const auto i = static_cast<int64_t>(w);
        try {
          parts[w] = drive_range(config, artifacts, mpc, &counters[w],
                                 plans * i / size, plans * (i + 1) / size);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  exp::TrialResult trial;
  trial.schemes = exp::detail::empty_scheme_results(config);
  decisions = 0;
  for (size_t w = 0; w < n; w++) {
    for (size_t i = 0; i < trial.schemes.size(); i++) {
      exp::detail::append_scheme_result(trial.schemes[i],
                                        parts[w].schemes[i]);
    }
    decisions += counters[w].ledger.span_count(Layer::kAbrPlan);
  }
  return trial;
}

}  // namespace perfbench
