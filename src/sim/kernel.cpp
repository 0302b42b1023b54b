#include "sim/kernel.h"

#include <thread>

#include "sim/host_pool.h"

namespace cabt::sim {

void ClockedProcess::activate(Kernel& kernel) {
  if (stopped_) {
    return;
  }
  tick(kernel);
  if (!stopped_) {
    kernel.sync(this, kernel.now() + period_);
  }
}

Event::Event(Kernel* kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
  CABT_CHECK(kernel_ != nullptr, "event needs a kernel");
}

void Event::notify(Cycle at) {
  for (Process* p : waiting_) {
    kernel_->sync(p, at);
  }
  waiting_.clear();
}

Kernel::Kernel(Cycle quantum) : quantum_(quantum) {
  CABT_CHECK(quantum_ >= 1, "quantum must be >= 1");
}

Kernel::~Kernel() = default;

template <class Self, class Ar, class Events, class ProcIo>
void Kernel::io(Self& self, Ar& ar, Events& events, ProcIo&& proc_io) {
  ar.tag("kernel");
  ar.field(self.now_);
  ar.expect(self.quantum_, "kernel quantum");
  ar.fields(self.seq_, self.dispatched_, self.rounds_, self.prefixes_);
  ar.seq(events, [&](auto& ev) {
    ar.fields(ev.at, ev.seq);
    proc_io(ev.proc);
  });
}

void Kernel::saveState(
    serial::Writer& w,
    const std::function<uint32_t(Process*)>& index_of) const {
  // Canonical event order (the comparator's total order), so the bytes
  // do not depend on the incidental heap layout.
  std::vector<Ev> sorted;
  sorted.reserve(queue_.size());
  for (const Ev& ev : queue_) {
    CABT_CHECK(ev.proc != nullptr,
               "cannot snapshot a kernel holding schedule() callbacks");
    sorted.push_back(Ev{ev.at, ev.seq, ev.proc, {}});
  }
  std::sort(sorted.begin(), sorted.end(), [](const Ev& a, const Ev& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  io(*this, w, sorted, [&](Process* p) { w.field(index_of(p)); });
}

void Kernel::restoreState(
    serial::Reader& r,
    const std::function<Process*(uint32_t)>& process_at) {
  io(*this, r, queue_, [&](Process*& p) {
    p = process_at(r.get<uint32_t>());
    CABT_CHECK(p != nullptr, "snapshot names an unknown process");
  });
  std::make_heap(queue_.begin(), queue_.end(), Later{});
}

void Kernel::dispatchOne() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Ev ev = std::move(queue_.back());
  queue_.pop_back();
  if (ev.at > now_) {
    now_ = ev.at;
  }
  ++dispatched_;
  if (ev.proc != nullptr) {
    ev.proc->activate(*this);
  } else {
    ev.fn();
  }
}

Cycle Kernel::run(Cycle limit) {
  return parallel_.enabled ? runParallelRounds(limit) : runSequential(limit);
}

Cycle Kernel::runSequential(Cycle limit) {
  while (!queue_.empty() && queue_.front().at <= limit) {
    dispatchOne();
  }
  return now_;
}

void Kernel::runPrefixes(const std::vector<Process*>& ready) {
  if (ready.empty()) {
    return;
  }
  ++rounds_;
  prefixes_ += ready.size();
  if (ready.size() == 1) {
    ready.front()->parallelPrefix(quantum_);
    return;
  }
  if (pool_ == nullptr) {
    unsigned workers = parallel_.workers;
    if (workers == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      workers = hw > 1 ? hw - 1 : 0;  // the caller is a prefix runner too
    }
    pool_ = std::make_unique<HostPool>(std::min(workers, 16u));
  }
  // One round = one barriered batch of quantum-bounded prefixes; the
  // mutex hand-off inside the pool makes all prefix state visible to
  // the sequential drain that follows.
  pool_->runAll(ready.size(),
                [&ready, this](size_t i) { ready[i]->parallelPrefix(quantum_); });
}

Cycle Kernel::runParallelRounds(Cycle limit) {
  std::vector<Process*> ready;
  while (!queue_.empty() && queue_.front().at <= limit) {
    // One round: [start, start + quantum). Every process syncs at least
    // one quantum ahead of its activation time, so each participates in
    // at most one activation per round and a prefix run now is consumed
    // by an activation in this round's drain (prefixes are only taken
    // from events at <= limit, which the drain is guaranteed to reach).
    const Cycle start = queue_.front().at;
    const Cycle round_end =
        start > kForever - quantum_ ? kForever : start + quantum_;
    ready.clear();
    for (const Ev& ev : queue_) {
      if (ev.proc == nullptr || ev.at >= round_end || ev.at > limit ||
          !ev.proc->parallelReady()) {
        continue;
      }
      // Defensive de-dup: a process with several queued activations runs
      // one prefix only (the first activation consumes it).
      if (std::find(ready.begin(), ready.end(), ev.proc) == ready.end()) {
        ready.push_back(ev.proc);
      }
    }
    runPrefixes(ready);
    // Sequential drain: the exact pop-min order of the sequential
    // kernel, including events pushed while draining that still fall
    // inside this round's window.
    while (!queue_.empty() && queue_.front().at < round_end &&
           queue_.front().at <= limit) {
      dispatchOne();
    }
    if (trace_sink_ != nullptr) {
      // After the drain, on the dispatch thread: direct emission is the
      // sequential path the sink's threading contract requires.
      const Cycle span_end = round_end == kForever ? now_ : round_end;
      trace_sink_->complete(obs::kKernelLane, "round", start,
                            span_end > start ? span_end - start : 0,
                            "prefixes", ready.size());
    }
    if (round_end == kForever) {
      break;  // the window was unbounded: everything already drained
    }
  }
  return now_;
}

void Kernel::publishMetrics(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  reg.setCounter(prefix + "events_dispatched", dispatched_);
  reg.setCounter(prefix + "parallel_rounds", rounds_);
  reg.setCounter(prefix + "parallel_prefixes", prefixes_);
  reg.setGauge(prefix + "now", static_cast<double>(now_));
  reg.setGauge(prefix + "queue_depth", static_cast<double>(queue_.size()));
  reg.setGauge(prefix + "quantum", static_cast<double>(quantum_));
}

}  // namespace cabt::sim
