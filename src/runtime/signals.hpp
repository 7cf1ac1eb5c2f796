// Preemption signal plumbing: handler installation, initiate/forward
// delivery, and masks for the runtime's helper threads.
#pragma once

#include <csignal>

namespace lpt {

class Runtime;
struct Worker;

namespace signals {

/// Timer signal used for implicit preemption (SIGRTMIN).
int preempt_signo();
/// Resume signal for the Sigsuspend KLT-parking variant (SIGRTMIN + 1).
int resume_signo();
/// Independent on-CPU sampling signal (SIGRTMIN + 2), used only when
/// LPT_PROF_HZ decouples the profiler from the preemption ticks.
int prof_signo();

/// Install both handlers process-wide (idempotent). SA_RESTART is set as the
/// paper recommends (§3.5.1); SA_ONSTACK is deliberately NOT set so the
/// signal frame lives on the interrupted ULT's own stack.
void install_handlers();

/// Block both runtime signals in the calling thread (helper threads, so
/// stray deliveries never land on a non-worker stack).
void block_runtime_signals();
/// Unblock the preempt signal in the calling thread (worker KLTs).
void unblock_preempt();

/// initiator_rank of a preemption-on-arrival signal: per-worker delivery
/// like -1, and the handler that serves it releases the target's burst guard
/// (Worker::kick_pending).
inline constexpr int kArrivalKick = -2;

/// Deliver an initiate/forward preemption signal to worker w.
/// initiator_rank == -1 means "per-worker delivery, do not forward";
/// kArrivalKick marks a preemption-on-arrival signal; otherwise it
/// identifies the chain/fan-out initiator (§3.2.2). Async-signal-safe.
void send_preempt(Worker& w, int initiator_rank);

/// Deliver one profiler sampling signal to worker w's current host KLT
/// (LPT_PROF_HZ mode; the runtime's sampler thread calls this). Same
/// shutdown gating as send_preempt.
void send_prof_tick(Worker& w);

}  // namespace signals
}  // namespace lpt
