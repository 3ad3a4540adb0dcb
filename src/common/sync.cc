#include "src/common/sync.h"

// Runtime lock-order checker (DESIGN.md §17). Debug builds only — any
// build type without NDEBUG (Sanitize, Tsan, Debug). Named mutexes
// form the nodes of a global directed graph; acquiring lock B while
// holding lock A records the edge A -> B the first time it happens,
// with the acquiring thread's backtrace. An acquisition whose new edge
// closes a cycle is a potential deadlock: some interleaving of the
// recorded orders can block forever. The checker aborts at the
// *ordering violation*, deterministically, instead of leaving the
// deadlock to strike under production timing — and prints both the
// current acquisition stack and the stored stack that established the
// reverse path.
//
// Graph nodes are lock *names* (shared by all instances constructed
// with the same string), because lock order is a property of lock
// roles: "watchdog mu_ before cancellation-state mu" must hold across
// every watchdog and every cancellation source. Unnamed mutexes stay
// out of the graph but still get same-instance recursion detection.

#ifndef NDEBUG

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define P3C_SYNC_HAVE_BACKTRACE 1
#endif
#endif

namespace p3c {
namespace sync_internal {
namespace {

constexpr int kMaxFrames = 32;

struct Backtrace {
  void* frames[kMaxFrames];
  int depth = 0;
};

void CaptureBacktrace(Backtrace* bt) {
#ifdef P3C_SYNC_HAVE_BACKTRACE
  bt->depth = backtrace(bt->frames, kMaxFrames);
#else
  bt->depth = 0;
#endif
}

void PrintBacktrace(const Backtrace& bt) {
#ifdef P3C_SYNC_HAVE_BACKTRACE
  if (bt.depth > 0) {
    backtrace_symbols_fd(bt.frames, bt.depth, 2);
    return;
  }
#endif
  std::fprintf(stderr, "    <backtrace unavailable>\n");
}

// First-acquisition record for one ordering edge.
struct Edge {
  Backtrace stack;
};

// name -> (successor name -> first acquisition that recorded it).
using OrderGraph = std::map<std::string, std::map<std::string, Edge>>;

// The checker's own lock. A raw std::mutex on purpose: routing it
// through p3c::Mutex would recurse straight back into the checker.
std::mutex& GraphMutex() {  // NOLINT(p3c-naked-mutex): the checker's own lock cannot be a checked lock
  static std::mutex mu;     // NOLINT(p3c-naked-mutex): see above
  return mu;
}

OrderGraph& Graph() {
  static OrderGraph* graph = new OrderGraph();  // leaked: used at exit
  return *graph;
}

struct HeldLock {
  const void* instance;
  const char* name;  // nullptr for unnamed locks
};

std::vector<HeldLock>& HeldStack() {
  thread_local std::vector<HeldLock> held;
  return held;
}

// Depth-first search for a path from `from` to `target` in the order
// graph. On success, `path` holds the node sequence from -> ... ->
// target. Caller holds GraphMutex().
bool FindPath(const OrderGraph& graph, const std::string& from,
              const std::string& target, std::vector<std::string>* path,
              std::vector<std::string>* visited) {
  for (const std::string& v : *visited) {
    if (v == from) return false;
  }
  visited->push_back(from);
  path->push_back(from);
  if (from == target) return true;
  const auto it = graph.find(from);
  if (it != graph.end()) {
    for (const auto& [next, edge] : it->second) {
      (void)edge;
      if (FindPath(graph, next, target, path, visited)) return true;
    }
  }
  path->pop_back();
  return false;
}

[[noreturn]] void ReportCycleAndAbort(const char* holding,
                                      const char* acquiring,
                                      const std::vector<std::string>& path,
                                      const Edge* prior) {
  // Single-line cycle summary first (tests grep for it): the new edge
  // holding -> acquiring plus the recorded path acquiring -> ... ->
  // holding.
  std::string cycle = std::string("\"") + holding + "\" -> \"" + acquiring +
                      "\"";
  for (size_t i = 1; i < path.size(); ++i) {
    cycle += " -> \"" + path[i] + "\"";
  }
  std::fprintf(stderr,
               "p3c sync: POTENTIAL DEADLOCK: acquiring \"%s\" while holding "
               "\"%s\" closes lock-order cycle %s\n",
               acquiring, holding, cycle.c_str());
  std::fprintf(stderr,
               "p3c sync: current acquisition stack (holding \"%s\", "
               "acquiring \"%s\"):\n",
               holding, acquiring);
  Backtrace here;
  CaptureBacktrace(&here);
  PrintBacktrace(here);
  if (prior != nullptr && path.size() >= 2) {
    std::fprintf(stderr,
                 "p3c sync: prior acquisition stack (established \"%s\" -> "
                 "\"%s\"):\n",
                 path[0].c_str(), path[1].c_str());
    PrintBacktrace(prior->stack);
  }
  std::abort();
}

[[noreturn]] void ReportRecursionAndAbort(const char* name) {
  std::fprintf(stderr,
               "p3c sync: RECURSIVE LOCK: mutex \"%s\" acquired twice by the "
               "same thread (std::mutex recursion is undefined behavior)\n",
               name != nullptr ? name : "<unnamed>");
  Backtrace here;
  CaptureBacktrace(&here);
  PrintBacktrace(here);
  std::abort();
}

void OnLockAttempt(const void* instance, const char* name) {
  std::vector<HeldLock>& held = HeldStack();
  for (const HeldLock& h : held) {
    if (h.instance == instance) ReportRecursionAndAbort(name);
  }
  if (name != nullptr) {
    std::lock_guard<std::mutex> graph_lock(  // NOLINT(p3c-naked-mutex): checker-internal lock
        GraphMutex());
    OrderGraph& graph = Graph();
    for (const HeldLock& h : held) {
      if (h.name == nullptr) continue;
      if (std::strcmp(h.name, name) == 0) {
        // Two distinct instances of the same lock class nested: no
        // address-order protocol exists in this tree, so treat it as a
        // self-cycle.
        std::vector<std::string> self{name};
        ReportCycleAndAbort(h.name, name, self, nullptr);
      }
      auto& out = graph[h.name];
      if (out.find(name) != out.end()) continue;  // edge already vetted
      // Would adding h.name -> name close a cycle? Only if the reverse
      // direction name -> ... -> h.name is already on record.
      std::vector<std::string> path;
      std::vector<std::string> visited;
      if (FindPath(graph, name, h.name, &path, &visited)) {
        const Edge* prior = nullptr;
        if (path.size() >= 2) prior = &graph[path[0]][path[1]];
        ReportCycleAndAbort(h.name, name, path, prior);
      }
      Edge edge;
      CaptureBacktrace(&edge.stack);
      out.emplace(name, edge);
    }
  }
  held.push_back({instance, name});
}

void OnUnlock(const void* instance) {
  std::vector<HeldLock>& held = HeldStack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->instance == instance) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

bool LockOrderCheckerEnabled() { return true; }

void ResetLockOrderGraphForTest() {
  std::lock_guard<std::mutex> graph_lock(  // NOLINT(p3c-naked-mutex): checker-internal lock
      GraphMutex());
  Graph().clear();
}

}  // namespace sync_internal

void Mutex::Lock() {
  sync_internal::OnLockAttempt(this, name_);
  mu_.lock();
}

void Mutex::Unlock() {
  mu_.unlock();
  sync_internal::OnUnlock(this);
}

bool Mutex::TryLock() {
  // Register before the native try so recursion is caught before the
  // (undefined-behavior) recursive try_lock; pop again on failure.
  sync_internal::OnLockAttempt(this, name_);
  if (mu_.try_lock()) return true;
  sync_internal::OnUnlock(this);
  return false;
}

void SharedMutex::Lock() {
  sync_internal::OnLockAttempt(this, name_);
  mu_.lock();
}

void SharedMutex::Unlock() {
  mu_.unlock();
  sync_internal::OnUnlock(this);
}

void SharedMutex::ReaderLock() {
  // Shared acquisitions order-check like exclusive ones: a reader can
  // block behind a queued writer, so reader sites constrain lock order
  // exactly the same way.
  sync_internal::OnLockAttempt(this, name_);
  mu_.lock_shared();
}

void SharedMutex::ReaderUnlock() {
  mu_.unlock_shared();
  sync_internal::OnUnlock(this);
}

}  // namespace p3c

#else  // NDEBUG: release builds take the native primitives straight.

namespace p3c {

namespace sync_internal {
bool LockOrderCheckerEnabled() { return false; }
void ResetLockOrderGraphForTest() {}
}  // namespace sync_internal

void Mutex::Lock() { mu_.lock(); }
void Mutex::Unlock() { mu_.unlock(); }
bool Mutex::TryLock() { return mu_.try_lock(); }

void SharedMutex::Lock() { mu_.lock(); }
void SharedMutex::Unlock() { mu_.unlock(); }
void SharedMutex::ReaderLock() { mu_.lock_shared(); }
void SharedMutex::ReaderUnlock() { mu_.unlock_shared(); }

}  // namespace p3c

#endif  // NDEBUG
