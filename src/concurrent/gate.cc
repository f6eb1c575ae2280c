#include "concurrent/gate.h"

#include "common/latches.h"
#include "common/status.h"

namespace cpma {

namespace {
// Typical writer holds are sub-microsecond (one segment insert), so
// sleeping on the condvar costs far more than the wait itself. Spin a
// little before blocking; rebalances and resizes still park properly.
//
// The spin phase polls the published state word / fences (relaxed
// atomics) and only re-acquires the mutex when the poll says the
// outcome could change (ISSUE 4 micro-fix): the old loop re-locked
// every kPollsPerRound relaxes even while the state word alone showed
// the gate still held, which turned a contended gate into a mutex
// ping-pong between the holder and every spinner.
constexpr int kSpinRounds = 48;
constexpr int kPollsPerRound = 32;
}  // namespace

bool Gate::WriterPollActionable(Key key, bool allow_queue) const {
  if (invalidated_.load(std::memory_order_relaxed)) return true;
  if (key < low_fence() || key > high_fence()) return true;
  if (pub_state_.load(std::memory_order_relaxed) == State::kFree) return true;
  // An active combiner accepts queued ops regardless of latch state.
  return allow_queue && writer_active_.load(std::memory_order_relaxed);
}

bool Gate::ReaderPollActionable(const Key* key) const {
  if (invalidated_.load(std::memory_order_relaxed)) return true;
  if (key != nullptr && (*key < low_fence() || *key > high_fence())) {
    return true;
  }
  const State s = pub_state_.load(std::memory_order_relaxed);
  return s == State::kFree || s == State::kRead;
}

GateAccess Gate::WriterAccess(const GateOp& op, bool allow_queue) {
  std::unique_lock<std::mutex> lk(m_);
  int spins = 0;
  for (;;) {
    if (invalidated_.load(std::memory_order_relaxed)) {
      return GateAccess::kInvalidated;
    }
    GateAccess fence_result;
    if (!FenceCheck(op.key, &fence_result)) return fence_result;
    if (allow_queue && writer_active_.load(std::memory_order_relaxed)) {
      queue_.push_back(op);
      return GateAccess::kQueued;
    }
    if (state_ == State::kFree) {
      SetState(State::kWrite);
      version_.BeginMutate();
      // In asynchronous modes the owning writer becomes the gate's
      // combiner (pQ set, paper §3.5); in sync mode no queue exists.
      writer_active_.store(allow_queue, std::memory_order_relaxed);
      return GateAccess::kOwner;
    }
    if (spins < kSpinRounds) {
      lk.unlock();
      while (spins < kSpinRounds) {
        for (int i = 0; i < kPollsPerRound; ++i) CpuRelax();
        ++spins;
        if (WriterPollActionable(op.key, allow_queue)) break;
      }
      lk.lock();
      continue;
    }
    cv_.wait(lk);
  }
}

GateAccess Gate::ReaderAccess(const Key* key) {
  std::unique_lock<std::mutex> lk(m_);
  int spins = 0;
  for (;;) {
    if (invalidated_.load(std::memory_order_relaxed)) {
      return GateAccess::kInvalidated;
    }
    if (key != nullptr) {
      GateAccess fence_result;
      if (!FenceCheck(*key, &fence_result)) return fence_result;
    }
    if (state_ == State::kFree || state_ == State::kRead) {
      SetState(State::kRead);
      ++num_readers_;
      return GateAccess::kOwner;
    }
    if (spins < kSpinRounds) {
      lk.unlock();
      while (spins < kSpinRounds) {
        for (int i = 0; i < kPollsPerRound; ++i) CpuRelax();
        ++spins;
        if (ReaderPollActionable(key)) break;
      }
      lk.lock();
      continue;
    }
    cv_.wait(lk);
  }
}

void Gate::ReaderRelease() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kRead && num_readers_ > 0);
  if (--num_readers_ == 0) {
    SetState(State::kFree);
    cv_.notify_all();
  }
}

bool Gate::WriterPopOrRelease(GateOp* op) {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kWrite);
  if (queue_.empty()) {
    writer_active_.store(false, std::memory_order_relaxed);
    version_.EndMutate();
    SetState(State::kFree);
    cv_.notify_all();
    return false;
  }
  *op = queue_.front();
  queue_.pop_front();
  return true;
}

std::deque<GateOp> Gate::WriterTakeQueue() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kWrite);
  std::deque<GateOp> out;
  out.swap(queue_);
  return out;
}

bool Gate::WriterRelease() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kWrite);
  if (!queue_.empty()) return false;
  writer_active_.store(false, std::memory_order_relaxed);
  version_.EndMutate();
  SetState(State::kFree);
  cv_.notify_all();
  return true;
}

void Gate::OwnerPushFront(const std::vector<GateOp>& ops) {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kWrite);
  queue_.insert(queue_.begin(), ops.begin(), ops.end());
}

void Gate::TransferToRebalancer() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kWrite);
  // WRITE -> REBAL keeps the version word odd: the mutation window
  // simply changes owner, and readers must not validate in between.
  SetState(State::kRebal);
  master_owned_ = false;
  // The master may already be waiting on this gate to extend a window;
  // an unowned REBAL gate is acquirable by it.
  cv_.notify_all();
}

bool Gate::WriterReacquireAfterRebal() {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    if (invalidated_.load(std::memory_order_relaxed)) return false;
    if (state_ == State::kFree) {
      SetState(State::kWrite);
      version_.BeginMutate();
      return true;
    }
    cv_.wait(lk);
  }
}

void Gate::WriterDetachKeepQueue() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kWrite &&
             writer_active_.load(std::memory_order_relaxed));
  version_.EndMutate();
  SetState(State::kFree);
  cv_.notify_all();
}

void Gate::MasterAcquire() {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [&] {
    return state_ == State::kFree ||
           (state_ == State::kRebal && !master_owned_);
  });
  // A transferred gate (REBAL, unowned) is already mid-mutation — its
  // version word is odd from the writer's acquire; only a fresh FREE ->
  // REBAL edge opens a new mutation window.
  if (state_ == State::kFree) version_.BeginMutate();
  SetState(State::kRebal);
  master_owned_ = true;
  rebal_stamp_.fetch_add(1, std::memory_order_relaxed);
}

void Gate::MasterRelease() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kRebal && master_owned_);
  version_.EndMutate();
  SetState(State::kFree);
  master_owned_ = false;
  rebal_stamp_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();
}

std::deque<GateOp> Gate::MasterTakeQueue() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kRebal && master_owned_);
  std::deque<GateOp> out;
  out.swap(queue_);
  return out;
}

void Gate::MasterClearWriterActive() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kRebal && master_owned_);
  writer_active_.store(false, std::memory_order_relaxed);
}

void Gate::MasterRequeue(const std::vector<GateOp>& ops) {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kRebal && master_owned_);
  queue_.insert(queue_.begin(), ops.begin(), ops.end());
  // The gate reverts to the detached-combiner shape batch mode uses
  // (writer_active set, queue accumulating, no latch holder after the
  // master releases): arriving writers enqueue behind the requeued ops —
  // preserving per-key FIFO — until the rebalancer's deferred retry
  // drains the queue.
  writer_active_.store(true, std::memory_order_relaxed);
}

void Gate::InvalidateAndRelease() {
  std::lock_guard<std::mutex> lk(m_);
  CPMA_CHECK(state_ == State::kRebal && master_owned_);
  CPMA_CHECK_MSG(queue_.empty(), "resize must drain combining queues");
  // Flag first, then close the mutation window: EndMutate's release
  // edge publishes the flag together with the even version, so an
  // optimistic reader that sees the post-resize version also sees the
  // invalidation and restarts on the new snapshot instead of serving
  // the retired storage forever.
  invalidated_.store(true, std::memory_order_relaxed);
  writer_active_.store(false, std::memory_order_relaxed);
  version_.EndMutate();
  SetState(State::kFree);
  master_owned_ = false;
  rebal_stamp_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();
}

void Gate::DumpStateForStall(std::FILE* out) const {
  static const char* kStateNames[] = {"FREE", "READ", "WRITE", "REBAL"};
  const State s = pub_state_.load(std::memory_order_relaxed);
  char queue_len[24];
  {
    std::unique_lock<std::mutex> lk(m_, std::try_to_lock);
    if (lk.owns_lock()) {
      std::snprintf(queue_len, sizeof(queue_len), "%zu", queue_.size());
    } else {
      std::snprintf(queue_len, sizeof(queue_len), "?(locked)");
    }
  }
  std::fprintf(out,
               "  gate %u: state=%s writer_active=%d invalidated=%d "
               "queue=%s fences=[%llu,%llu] segs=[%zu,%zu) stamp=%llu\n",
               id_, kStateNames[static_cast<int>(s)],
               writer_active_.load(std::memory_order_relaxed) ? 1 : 0,
               invalidated_.load(std::memory_order_relaxed) ? 1 : 0,
               queue_len,
               static_cast<unsigned long long>(low_fence()),
               static_cast<unsigned long long>(high_fence()), seg_begin_,
               seg_end_,
               static_cast<unsigned long long>(
                   rebal_stamp_.load(std::memory_order_relaxed)));
}

void Gate::SetFences(Key low, Key high) {
  std::lock_guard<std::mutex> lk(m_);
  low_fence_.store(low, std::memory_order_relaxed);
  high_fence_.store(high, std::memory_order_relaxed);
}

}  // namespace cpma
