#include "ledger.hh"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::string_view layer_name(const Layer layer) {
  switch (layer) {
    case Layer::kAbrPlan: return "abr.plan";
    case Layer::kAbrPredict: return "abr.predict";
    case Layer::kNetCc: return "net.cc";
    case Layer::kNetTransfer: return "net.transfer";
    case Layer::kNetPathGen: return "net.path_gen";
    case Layer::kSimPrepare: return "sim.prepare";
    case Layer::kSimPlan: return "sim.plan";
    case Layer::kMediaSource: return "media.source";
    case Layer::kExpTelemetry: return "exp.telemetry";
    case Layer::kExpEvalTrial: return "exp.eval_trial";
    case Layer::kFuguTrain: return "fugu.train";
    case Layer::kFuguEval: return "fugu.eval";
    case Layer::kExpCheckpoint: return "exp.checkpoint";
    case Layer::kCount: break;
  }
  return "unknown";
}

int32_t Ledger::open(const Layer layer) {
  counts_[static_cast<size_t>(layer)]++;
  if (!keep_spans_) {
    return kNoParent;
  }
  const auto index = static_cast<int32_t>(spans_.size());
  Span span;
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.session = session_;
  span.layer = layer;
  spans_.push_back(span);
  stack_.push_back(index);
  // Read the clock last, so the bookkeeping above is charged to the parent.
  spans_.back().start_ns = now_ns();
  return index;
}

void Ledger::close(const int32_t index) {
  if (!keep_spans_) {
    return;
  }
  const int64_t end = now_ns();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("Ledger: spans closed out of order");
  }
  stack_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = end;
}

void Ledger::add_leaf(const Layer layer, const int64_t ns) {
  counts_[static_cast<size_t>(layer)]++;
  leaf_ns_[static_cast<size_t>(layer)] += ns;
  if (!stack_.empty()) {
    spans_[static_cast<size_t>(stack_.back())].leaf_ns += ns;
  }
}

std::vector<int64_t> Ledger::all_self_ns() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    self[i] += duration - span.leaf_ns;
    if (span.parent != kNoParent) {
      self[static_cast<size_t>(span.parent)] -= duration;
    }
  }
  return self;
}

std::array<int64_t, kNumLayers> Ledger::self_ns() const {
  std::array<int64_t, kNumLayers> totals = leaf_ns_;
  const std::vector<int64_t> self = all_self_ns();
  for (size_t i = 0; i < spans_.size(); i++) {
    totals[static_cast<size_t>(spans_[i].layer)] += self[i];
  }
  return totals;
}

std::vector<int64_t> Ledger::span_self_ns(const Layer layer) const {
  const std::vector<int64_t> self = all_self_ns();
  std::vector<int64_t> out;
  for (size_t i = 0; i < spans_.size(); i++) {
    if (spans_[i].layer == layer) {
      out.push_back(self[i]);
    }
  }
  return out;
}

void Ledger::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("Ledger: cannot write " + path);
  }
  out << "layer,session,parent,start_ns,end_ns,leaf_ns\n";
  for (const Span& span : spans_) {
    out << layer_name(span.layer) << ',' << span.session << ',' << span.parent
        << ',' << span.start_ns << ',' << span.end_ns << ',' << span.leaf_ns
        << '\n';
  }
  if (!out.flush()) {
    throw std::runtime_error("Ledger: write failed for " + path);
  }
}

}  // namespace perfbench
