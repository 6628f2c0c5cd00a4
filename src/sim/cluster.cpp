#include "src/sim/cluster.hpp"

#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "src/sim/sim_telemetry.hpp"

namespace hcrl::sim {

void ClusterConfig::validate() const {
  if (num_servers == 0) throw std::invalid_argument("ClusterConfig: need >= 1 server");
  server.validate();
}

Cluster::Cluster(const ClusterConfig& cfg, AllocationPolicy& allocation, PowerPolicy& power)
    : Cluster(cfg, std::vector<ServerConfig>(cfg.num_servers, cfg.server), allocation, power) {}

Cluster::Cluster(const ClusterConfig& cfg, std::vector<ServerConfig> per_server,
                 AllocationPolicy& allocation, PowerPolicy& power)
    : cfg_(cfg),
      allocation_(allocation),
      power_policy_(power),
      metrics_(cfg.num_servers, cfg.keep_job_records) {
  cfg_.validate();
  if (per_server.size() != cfg_.num_servers) {
    throw std::invalid_argument("Cluster: per-server config count != num_servers");
  }
  servers_.reserve(cfg_.num_servers);
  for (std::size_t i = 0; i < cfg_.num_servers; ++i) {
    if (per_server[i].num_resources != cfg_.server.num_resources) {
      throw std::invalid_argument("Cluster: all servers must share num_resources");
    }
    per_server[i].validate();
    servers_.emplace_back(i, per_server[i], &metrics_);
  }
  set_server_view({servers_.data(), servers_.size()});
}

void Cluster::install_faults(FaultInjector* faults) {
  if (jobs_loaded_) throw std::logic_error("Cluster::install_faults: jobs already loaded");
  if (faults != nullptr) {
    for (const FaultEvent& f : faults->plan().events) {
      if (f.server >= servers_.size()) {
        throw std::invalid_argument("Cluster::install_faults: plan targets server " +
                                    std::to_string(f.server) + " out of range");
      }
    }
  }
  faults_ = faults;
}

void Cluster::load_jobs(std::vector<Job> jobs) {
  if (jobs_loaded_) throw std::logic_error("Cluster::load_jobs: already loaded");
  // Arrival events carry the jobs_ index in their JobId-typed `job` field, so
  // a trace larger than JobId's range would silently alias indices. Fail loud.
  if (jobs.size() > static_cast<std::size_t>(std::numeric_limits<JobId>::max())) {
    throw std::invalid_argument("Cluster::load_jobs: trace exceeds JobId index range");
  }
  std::unordered_set<JobId> ids;
  ids.reserve(jobs.size());
  Time prev = 0.0;
  for (const Job& j : jobs) {
    j.validate(cfg_.server.num_resources);
    if (j.arrival < prev) throw std::invalid_argument("Cluster::load_jobs: not sorted by arrival");
    prev = j.arrival;
    if (!ids.insert(j.id).second) throw std::invalid_argument("Cluster::load_jobs: duplicate id");
  }
  jobs_ = std::move(jobs);
  jobs_loaded_ = true;
  // The `job` field of an arrival event is the *index* into jobs_.
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    queue_.push(jobs_[i].arrival, EventType::kJobArrival, /*server=*/0,
                static_cast<JobId>(i));
  }
  // Fault-plan events take the next seq block: at equal timestamps they
  // lose to trace arrivals (lower seqs) and win against runtime events.
  if (faults_ != nullptr) {
    for (const FaultEvent& f : faults_->plan().events) {
      queue_.push(f.time, to_event_type(f.kind), f.server);
    }
  }
}

bool Cluster::step() {
  if (retry_outranks_heap()) {
    const FaultInjector::Retry r = faults_->pop_retry();
    if (r.time < now_) throw std::logic_error("Cluster: time went backwards");
    now_ = r.time;
    dispatch_arrival(r.job);
    if (telemetry::enabled()) telemetry::count(SimMetrics::get().events);
    return true;
  }
  if (queue_.empty()) {
    if (!finished_notified_) {
      finished_notified_ = true;
      allocation_.on_simulation_end(*this, now_);
    }
    return false;
  }
  const Event e = queue_.pop();
  if (e.time < now_) throw std::logic_error("Cluster: time went backwards");
  now_ = e.time;
  handle(e);
  if (telemetry::enabled()) telemetry::count(SimMetrics::get().events);
  return true;
}

bool Cluster::retry_outranks_heap() const {
  if (faults_ == nullptr || !faults_->has_pending_retry()) return false;
  if (queue_.empty()) return true;
  const Event& top = queue_.top();
  const Time rt = faults_->next_retry_time();
  if (rt != top.time) return rt < top.time;
  // Equal-time precedence: trace arrival, then retry, then anything else.
  // (Retries never enter the heap, so a kJobArrival top is a trace arrival.)
  return top.type != EventType::kJobArrival;
}

void Cluster::run() {
  while (step()) {
  }
}

void Cluster::run_until_completed(std::size_t n) {
  while (metrics_.jobs_completed() < n && step()) {
  }
}

void Cluster::handle(const Event& e) {
  switch (e.type) {
    case EventType::kJobArrival:
      dispatch_arrival(jobs_.at(static_cast<std::size_t>(e.job)));
      break;
    case EventType::kJobFinish:
      servers_.at(e.server).handle_job_finish(e.job, now_, queue_, power_policy_, e.generation);
      break;
    case EventType::kWakeComplete:
      servers_.at(e.server).handle_wake_complete(now_, queue_, power_policy_, e.generation);
      break;
    case EventType::kSleepComplete:
      servers_.at(e.server).handle_sleep_complete(now_, queue_, power_policy_, e.generation);
      break;
    case EventType::kIdleTimeout:
      servers_.at(e.server).handle_idle_timeout(e.generation, now_, queue_, power_policy_);
      break;
    case EventType::kServerCrash:
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_crashes);
      requeue_killed(servers_.at(e.server).handle_crash(now_));
      break;
    case EventType::kServerRecover:
      servers_.at(e.server).handle_recover(now_);
      break;
    case EventType::kSpotEvict:
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_evictions);
      requeue_killed(servers_.at(e.server).handle_eviction(now_, queue_, power_policy_));
      break;
  }
}

void Cluster::dispatch_arrival(const Job& job) {
  const ServerId target = allocation_.select_server(*this, job);
  if (target >= servers_.size()) {
    throw std::logic_error("AllocationPolicy returned invalid server " + std::to_string(target));
  }
  if (faults_ != nullptr && servers_[target].failed()) {
    // Transient allocation failure: the placement raced a crash. The job
    // never enters the system; it bounces into the retry stream.
    metrics_.on_bounce();
    if (faults_->schedule_retry(job, now_)) {
      metrics_.on_retry();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_retries);
    } else {
      metrics_.on_job_lost();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_lost);
    }
    return;
  }
  metrics_.on_arrival(job, now_);
  servers_[target].handle_arrival(job, now_, queue_, power_policy_);
  if (telemetry::enabled()) telemetry::count(SimMetrics::get().arrivals);
}

void Cluster::requeue_killed(const std::vector<Job>& killed) {
  for (const Job& j : killed) {
    if (faults_ != nullptr && faults_->schedule_retry(j, now_)) {
      metrics_.on_retry();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_retries);
    } else {
      metrics_.on_job_lost();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_lost);
    }
  }
}

double Cluster::mean_cpu_utilization() const {
  return metrics_.cpu_used_sum() / static_cast<double>(servers_.size());
}

std::size_t Cluster::servers_on() const { return metrics_.servers_on(); }

double Cluster::mean_cpu_utilization_scan() const {
  double total = 0.0;
  for (const Server& s : servers_) total += s.utilization(0);
  return total / static_cast<double>(servers_.size());
}

std::size_t Cluster::servers_on_scan() const {
  std::size_t n = 0;
  for (const Server& s : servers_) {
    if (s.is_on()) ++n;
  }
  return n;
}

}  // namespace hcrl::sim
