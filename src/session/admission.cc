#include "session/admission.h"

#include <utility>

namespace wadc::session {

const char* admission_outcome_name(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmit:
      return "admit";
    case AdmissionOutcome::kDefer:
      return "defer";
    case AdmissionOutcome::kShed:
      return "shed";
  }
  return "?";
}

AdmissionController::AdmissionController(const AdmissionParams& params,
                                         SignalsProbe probe,
                                         const ResponsePredictor* predictor)
    : params_(params), probe_(std::move(probe)), predictor_(predictor) {}

LoadSignals AdmissionController::signals() const {
  LoadSignals s = probe_ ? probe_() : LoadSignals{};
  s.running = running_;
  s.queued = queued();
  return s;
}

bool AdmissionController::may_start(sim::SimTime now,
                                    sim::SimTime queued_at) const {
  switch (params_.policy) {
    case AdmissionPolicy::kUnbounded:
    case AdmissionPolicy::kDeadlineAware:
      return true;
    case AdmissionPolicy::kFixedCap:
    case AdmissionPolicy::kLoadShedding:
      return running_ < params_.max_concurrent;
    case AdmissionPolicy::kBandwidthAware: {
      // Forward progress, twice over: an idle system always admits, and a
      // session that has waited out the deferral bound is force-admitted —
      // congestion may delay it but can never starve it.
      if (running_ == 0) return true;
      if (now - queued_at >= params_.max_defer_seconds) return true;
      const std::optional<double> bw =
          probe_ ? probe_().client_bandwidth : std::nullopt;
      // No fresh measurement is no evidence of congestion; admit and let
      // passive monitoring of the session's own traffic settle the question
      // by the next decision point.
      return !bw.has_value() || *bw >= params_.min_bandwidth;
    }
  }
  return true;
}

AdmissionDecision AdmissionController::request(int id, sim::SimTime now,
                                               double deadline_seconds) {
  AdmissionDecision d;
  switch (params_.policy) {
    case AdmissionPolicy::kUnbounded:
      d.outcome = AdmissionOutcome::kAdmit;
      d.reason = "unbounded";
      break;
    case AdmissionPolicy::kFixedCap:
      if (running_ < params_.max_concurrent) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "cap-free";
      } else {
        d.outcome = AdmissionOutcome::kDefer;
        d.reason = "cap-full";
      }
      break;
    case AdmissionPolicy::kBandwidthAware:
      if (may_start(now, now)) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "bandwidth-clear";
      } else {
        d.outcome = AdmissionOutcome::kDefer;
        d.reason = "bandwidth-low";
      }
      break;
    case AdmissionPolicy::kLoadShedding:
      if (running_ < params_.max_concurrent) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "cap-free";
      } else if (queued() < params_.max_queue) {
        d.outcome = AdmissionOutcome::kDefer;
        d.reason = "cap-full";
      } else {
        d.outcome = AdmissionOutcome::kShed;
        d.reason = "queue-full";
      }
      break;
    case AdmissionPolicy::kDeadlineAware: {
      const double deadline = deadline_seconds > 0
                                  ? deadline_seconds
                                  : params_.deadline_seconds;
      if (deadline <= 0 || predictor_ == nullptr) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "no-deadline";
        break;
      }
      const std::optional<double> predicted = predictor_->predict(signals());
      if (!predicted.has_value()) {
        // No bandwidth estimate, no prediction. An idle system admits —
        // there is nothing to contend with and the session's own traffic
        // warms the cache. A busy one sheds: admitting blind on top of
        // existing load is exactly the cold-start pileup that blows every
        // deadline at once.
        if (running_ == 0) {
          d.outcome = AdmissionOutcome::kAdmit;
          d.reason = "no-estimate";
        } else {
          d.outcome = AdmissionOutcome::kShed;
          d.reason = "no-estimate-busy";
        }
      } else if (*predicted <= deadline) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "predicted-fit";
        d.predicted_response_seconds = *predicted;
      } else {
        d.outcome = AdmissionOutcome::kShed;
        d.reason = "predicted-miss";
        d.predicted_response_seconds = *predicted;
      }
      break;
    }
  }
  switch (d.outcome) {
    case AdmissionOutcome::kAdmit:
      ++running_;
      break;
    case AdmissionOutcome::kDefer:
      queue_.push_back({id, now});
      break;
    case AdmissionOutcome::kShed:
      break;
  }
  return d;
}

std::vector<int> AdmissionController::drain_queue(sim::SimTime now) {
  std::vector<int> admitted;
  while (!queue_.empty() && may_start(now, queue_.front().queued_at)) {
    admitted.push_back(queue_.front().id);
    queue_.pop_front();
    ++running_;
  }
  return admitted;
}

std::vector<int> AdmissionController::on_completed(sim::SimTime now) {
  --running_;
  return drain_queue(now);
}

std::vector<int> AdmissionController::on_recheck(sim::SimTime now) {
  return drain_queue(now);
}

std::optional<sim::SimTime> AdmissionController::next_forced_admit() const {
  if (params_.policy != AdmissionPolicy::kBandwidthAware || queue_.empty()) {
    return std::nullopt;
  }
  // FIFO: the head of the queue has waited longest.
  return queue_.front().queued_at + params_.max_defer_seconds;
}

}  // namespace wadc::session
