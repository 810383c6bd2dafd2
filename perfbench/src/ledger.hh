#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The layers the traced run attributes wall time to. Each is timed from
/// outside, around calls into one module's public entry points.
enum class Layer : uint8_t {
  kAbrPlan,       ///< abr::AbrAlgorithm::choose_rung
  kAbrPredict,    ///< abr::TxTimePredictor::begin_decision / predict_batch
  kNetCc,         ///< net::CongestionControl::on_sample (BBR)
  kNetTransfer,   ///< StreamSession::finish_chunk + send_preamble
  kNetPathGen,    ///< net::PathGenerator::sample_path
  kSimPrepare,    ///< StreamSession::prepare_chunk
  kSimPlan,       ///< exp::make_session_plan (user model + seeds)
  kMediaSource,   ///< VbrVideoSource + StreamSession construction
  kExpTelemetry,  ///< exp::collect_telemetry
  kExpEvalTrial,  ///< exp::run_trial (one campaign arm-day)
  kFuguTrain,     ///< fugu::train_ttp
  kFuguEval,      ///< fugu::evaluate_ttp
  kExpCheckpoint, ///< exp::save_ttp + exp::save_dataset
  kCount,
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Metric-name prefix of a layer ("abr.plan", "net.cc", ...).
[[nodiscard]] std::string_view layer_name(Layer layer);

/// In-memory span log of one traced run. Spans nest on a stack (the traced
/// driver is single-threaded); each records its layer, start, end, the span
/// that caused it and the session it belongs to. Nothing is aggregated
/// while the run is timed: self times and percentiles are derived after
/// the run, and the raw spans are written out at exit.
///
/// Leaf calls (congestion-control samples, dozens per chunk) are too many
/// to keep as spans: a leaf call's time is added to its layer and to the
/// enclosing span's `leaf_ns`, which its self time then leaves out.
class Ledger {
 public:
  static constexpr int32_t kNoParent = -1;

  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t leaf_ns = 0;  ///< time of the leaf calls made inside the span
    int32_t parent = kNoParent;
    int32_t session = -1;
    Layer layer = Layer::kCount;
  };

  /// keep_spans = false counts the spans and leaf calls of each layer but
  /// keeps no span and reads no clock: for checks that need only counts.
  explicit Ledger(bool keep_spans = true) : keep_spans_(keep_spans) {}

  [[nodiscard]] static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int32_t open(Layer layer);
  void close(int32_t index);
  void add_leaf(Layer layer, int64_t ns);
  [[nodiscard]] bool keeps_spans() const { return keep_spans_; }
  void set_session(int32_t session) { session_ = session; }

  /// Per-layer self time: span durations minus the part their direct
  /// children cover.
  [[nodiscard]] std::array<int64_t, kNumLayers> self_ns() const;
  /// Self time of every span of `layer`, in span order.
  [[nodiscard]] std::vector<int64_t> span_self_ns(Layer layer) const;
  /// Spans (or leaf calls) of `layer`.
  [[nodiscard]] int64_t span_count(Layer layer) const {
    return counts_[static_cast<size_t>(layer)];
  }

  /// Write the spans as CSV (layer,session,parent,start_ns,end_ns,leaf_ns).
  void write_csv(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<int64_t> all_self_ns() const;

  bool keep_spans_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  std::array<int64_t, kNumLayers> counts_{};
  std::array<int64_t, kNumLayers> leaf_ns_{};
  int32_t session_ = -1;
};

/// Times the enclosing scope as one span of `layer`; a null ledger makes it
/// a no-op, so the driver runs the same code traced and untraced.
class Scope {
 public:
  Scope(Ledger* ledger, Layer layer)
      : ledger_(ledger), index_(ledger != nullptr ? ledger->open(layer) : 0) {}
  ~Scope() {
    if (ledger_ != nullptr) {
      ledger_->close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
  int32_t index_;
};

/// Times the enclosing scope as one leaf call of `layer`.
class LeafScope {
 public:
  LeafScope(Ledger& ledger, Layer layer)
      : ledger_(ledger),
        layer_(layer),
        start_ns_(ledger.keeps_spans() ? Ledger::now_ns() : 0) {}
  ~LeafScope() {
    ledger_.add_leaf(layer_,
                     ledger_.keeps_spans() ? Ledger::now_ns() - start_ns_ : 0);
  }
  LeafScope(const LeafScope&) = delete;
  LeafScope& operator=(const LeafScope&) = delete;

 private:
  Ledger& ledger_;
  Layer layer_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_HH
