//! The shared execution runtime: a persistent worker pool.
//!
//! Every "round" in this workspace — an MPC machine-local computation, a
//! shard batch in the resident engine, a conformance grid cell, an
//! experiment — is the same shape: `n` independent tasks whose results
//! must come back in input order.  The original simulator spawned a
//! fresh set of OS threads per round (`std::thread::scope` in
//! `kcz_mpc::exec`), paying thread start-up and teardown on every round.
//! [`Pool`] keeps the workers alive across rounds and feeds them batches
//! through a shared injector queue.
//!
//! # Execution model
//!
//! [`Pool::scoped_map`] publishes a batch (an atomic task cursor over the
//! items), enqueues one *invitation* per idle worker, and then runs the
//! batch itself from the calling thread.  Any worker that picks up an
//! invitation joins the cursor loop; the batch finishes even if every
//! worker is busy (the caller alone drains it), which makes nested
//! `scoped_map` calls from inside pool tasks deadlock-free by
//! construction.  Results land in per-index slots, so output order is
//! deterministic regardless of which thread ran which task.
//!
//! # Safety protocol
//!
//! Tasks may borrow caller-stack data, while workers are `'static`
//! threads, so the batch pointer handed to the queue has its lifetime
//! erased.  Soundness rests on a retire handshake documented at the
//! `unsafe` sites: the caller does not return until every task has run
//! *and* no worker is still inside the batch (`runners == 0`), after
//! which the batch is flagged retired under the monitor lock; a worker
//! only dereferences the erased pointer after registering as a runner
//! under that same lock and observing the batch un-retired.  Panicking
//! tasks are caught, counted, and re-thrown on the calling thread once
//! the batch quiesces.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Progress of one published batch, shared between the caller and any
/// workers that joined it.
struct BatchMonitor {
    state: Mutex<BatchProgress>,
    quiesced: Condvar,
}

struct BatchProgress {
    /// Tasks not yet completed (decremented exactly once per task).
    remaining: usize,
    /// Workers currently inside the batch's `run` loop (the caller does
    /// not count itself: it never returns before its own loop exits).
    runners: usize,
    /// Set by the caller after quiescence; late invitations must not
    /// touch the (by then freed) batch.
    retired: bool,
    /// First panic payload from any task, re-thrown by the caller.
    panic: Option<Box<dyn Any + Send>>,
}

impl BatchMonitor {
    fn new(tasks: usize) -> Self {
        BatchMonitor {
            state: Mutex::new(BatchProgress {
                remaining: tasks,
                runners: 0,
                retired: false,
                panic: None,
            }),
            quiesced: Condvar::new(),
        }
    }
}

/// Object-safe face of a typed batch: pull tasks off the cursor until the
/// batch is exhausted.
trait BatchRun: Sync {
    fn run(&self);
}

/// A typed batch living on the caller's stack for the duration of one
/// [`Pool::scoped_map`].
struct Batch<'f, T, R, F> {
    cursor: AtomicUsize,
    tasks: Vec<Mutex<Option<T>>>,
    results: Vec<Mutex<Option<R>>>,
    f: &'f F,
    monitor: Arc<BatchMonitor>,
}

impl<T: Send, R: Send, F: Fn(usize, T) -> R + Sync> BatchRun for Batch<'_, T, R, F> {
    fn run(&self) {
        let n = self.tasks.len();
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let task = self.tasks[i]
                .lock()
                .unwrap()
                .take()
                .expect("task taken once");
            // Panics must not leak into a pool worker (it would die and
            // silently shrink the pool) nor skip the `remaining`
            // decrement (the caller would wait forever).
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.f)(i, task)));
            match outcome {
                Ok(r) => *self.results[i].lock().unwrap() = Some(r),
                Err(payload) => {
                    let mut st = self.monitor.state.lock().unwrap();
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
            }
            let mut st = self.monitor.state.lock().unwrap();
            st.remaining -= 1;
            if st.remaining == 0 {
                // The caller may be waiting; runners (if any) notify
                // again as they deregister.
                self.monitor.quiesced.notify_all();
            }
        }
    }
}

/// One invitation in the injector queue: an erased pointer to a live
/// batch plus the monitor that guards its liveness.
struct Invitation {
    /// Lifetime-erased pointer to a `Batch` on some caller's stack.
    /// Dereferenced only between `runners += 1` and `runners -= 1`,
    /// and only when the monitor says the batch is not retired.
    batch: *const (dyn BatchRun + 'static),
    monitor: Arc<BatchMonitor>,
}

// SAFETY: the pointee is `Sync` (required by `BatchRun`), and the retire
// handshake (see module docs) guarantees it is alive whenever a worker
// dereferences the pointer.
unsafe impl Send for Invitation {}

/// Queue state guarded by the mutex the [`Injector`]'s condvar is paired
/// with.  `shutdown` lives *inside* this state on purpose: if it were a
/// separate flag, a worker could read it as `false`, release the queue
/// lock, and block in `wait` just as `Drop` sets the flag and notifies —
/// a lost wakeup that would hang `Drop`'s `join` forever.  Keeping flag
/// and queue under one mutex serializes the flag write with the wait.
struct InjectorState {
    queue: VecDeque<Invitation>,
    shutdown: bool,
}

struct Injector {
    state: Mutex<InjectorState>,
    available: Condvar,
}

/// A persistent worker pool with order-preserving parallel map.
///
/// Create one with [`Pool::new`] (tests, dedicated engines) or share the
/// process-wide instance via [`global`].  Dropping an owned pool shuts it
/// down gracefully: workers finish the queued invitations, then exit, and
/// `Drop` joins them.
pub struct Pool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool with `threads` persistent workers.  `threads = 0` is valid
    /// and degrades every [`scoped_map`](Self::scoped_map) to an inline
    /// sequential loop on the calling thread.
    pub fn new(threads: usize) -> Self {
        let injector = Arc::new(Injector {
            state: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("kcz-pool-{i}"))
                    .spawn(move || worker_loop(&injector))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { injector, workers }
    }

    /// Number of persistent workers (the calling thread always
    /// participates on top of these).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Applies `f` to every item, in parallel across the pool plus the
    /// calling thread, and returns the results **in input order**.
    ///
    /// The call blocks until every task has completed; tasks may
    /// therefore borrow from the caller's stack (via `f`'s captures or
    /// `T` itself).  A panic in any task is re-thrown here after the
    /// whole batch has quiesced.  Nested calls from inside pool tasks
    /// are safe: the inner caller drives its own batch to completion
    /// even when every worker is occupied.
    pub fn scoped_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers.is_empty() || n == 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let monitor = Arc::new(BatchMonitor::new(n));
        let batch = Batch {
            cursor: AtomicUsize::new(0),
            tasks: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            f: &f,
            monitor: Arc::clone(&monitor),
        };
        // Erase the batch's borrow of the caller's stack.  SAFETY: the
        // retire handshake below guarantees no worker dereferences this
        // pointer after `scoped_map` returns.
        let erased: *const (dyn BatchRun + 'static) = unsafe {
            std::mem::transmute::<*const (dyn BatchRun + '_), *const (dyn BatchRun + 'static)>(
                &batch as &dyn BatchRun as *const (dyn BatchRun + '_),
            )
        };
        let invitations = self.workers.len().min(n - 1);
        {
            let mut st = self.injector.state.lock().unwrap();
            for _ in 0..invitations {
                st.queue.push_back(Invitation {
                    batch: erased,
                    monitor: Arc::clone(&monitor),
                });
            }
        }
        if invitations == 1 {
            self.injector.available.notify_one();
        } else {
            self.injector.available.notify_all();
        }

        // Participate: the caller alone suffices to finish the batch.
        batch.run();

        // Quiesce and retire: wait until every task is done and no worker
        // is still inside `batch.run`, then flag the batch dead so any
        // invitation still sitting in the queue is ignored.
        let payload = {
            let mut st = monitor.state.lock().unwrap();
            while st.remaining > 0 || st.runners > 0 {
                st = monitor.quiesced.wait(st).unwrap();
            }
            st.retired = true;
            st.panic.take()
        };
        if let Some(p) = payload {
            resume_unwind(p);
        }
        batch
            .results
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every task completed"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // The flag is set under the queue mutex (see `InjectorState`), so
        // every worker either sees it before waiting or is already in
        // `wait` when the notification lands — no lost wakeup.
        self.injector.state.lock().unwrap().shutdown = true;
        self.injector.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(injector: &Injector) {
    loop {
        let invitation = {
            let mut st = injector.state.lock().unwrap();
            loop {
                if let Some(inv) = st.queue.pop_front() {
                    break inv;
                }
                if st.shutdown {
                    return;
                }
                st = injector.available.wait(st).unwrap();
            }
        };
        // Register as a runner, unless the batch already retired (its
        // caller returned; the pointer is dangling and must not be
        // touched).
        let joined = {
            let mut st = invitation.monitor.state.lock().unwrap();
            if st.retired || st.remaining == 0 {
                false
            } else {
                st.runners += 1;
                true
            }
        };
        if !joined {
            continue;
        }
        // SAFETY: `runners` was incremented under the monitor lock while
        // the batch was not retired, and the caller cannot retire (or
        // return) until `runners` drops back to zero — so the pointee is
        // alive for the whole call.
        unsafe { (*invitation.batch).run() };
        let mut st = invitation.monitor.state.lock().unwrap();
        st.runners -= 1;
        if st.runners == 0 && st.remaining == 0 {
            invitation.monitor.quiesced.notify_all();
        }
    }
}

/// The process-wide shared pool, sized to the available parallelism
/// (minus the participating caller), created on first use.  The MPC
/// simulator, the resident engine, the conformance harness and the
/// experiment harness all map their rounds through this instance unless
/// handed a dedicated [`Pool`].
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(4)
            .saturating_sub(1);
        Pool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..257).collect();
        let out = pool.scoped_map(items, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_zero_thread_pools() {
        let pool = Pool::new(0);
        let out: Vec<u32> = pool.scoped_map(Vec::new(), |_, x| x);
        assert!(out.is_empty());
        let out = pool.scoped_map(vec![1u32, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        let out = pool.scoped_map((0..1000).collect::<Vec<usize>>(), |_, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn reused_across_many_rounds() {
        let pool = Pool::new(2);
        for round in 0..50 {
            let out = pool.scoped_map(vec![round; 8], |i, r| i + r);
            assert_eq!(out, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_may_borrow_caller_stack() {
        let pool = Pool::new(2);
        let data: Vec<Vec<u64>> = (0..20).map(|i| vec![i; 10]).collect();
        let refs: Vec<&Vec<u64>> = data.iter().collect();
        let sums = pool.scoped_map(refs, |_, v| v.iter().sum::<u64>());
        assert_eq!(sums, (0..20).map(|i| i * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_scoped_map_from_pool_tasks() {
        let pool = Pool::new(2);
        let out = pool.scoped_map((0..6u64).collect::<Vec<_>>(), |_, x| {
            global()
                .scoped_map((0..4u64).collect::<Vec<_>>(), |_, y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, (0..6u64).map(|x| 40 * x + 6).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_after_quiescence() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_map((0..32u32).collect::<Vec<_>>(), |i, x| {
                if i == 7 {
                    panic!("task seven failed");
                }
                x
            })
        }));
        assert!(caught.is_err());
        // The pool survives a panicking batch.
        let out = pool.scoped_map(vec![1u32, 2], |_, x| x * 3);
        assert_eq!(out, vec![3, 6]);
    }

    #[test]
    fn graceful_shutdown_joins_workers() {
        let pool = Pool::new(3);
        let _ = pool.scoped_map(vec![1u8, 2, 3, 4], |_, x| x);
        drop(pool); // must not hang or leak
    }

    #[test]
    fn rapid_create_drop_never_hangs() {
        // Regression: the shutdown flag must live under the same mutex as
        // the invitation queue.  As a separate flag, a worker could read
        // it un-set, then block in `wait` just as Drop set it and
        // notified — a lost wakeup hanging Drop's `join` forever.  Hammer
        // the create→use→drop path (workers racing between queue check
        // and wait at drop time) to keep the interleaving exercised.
        for round in 0..200usize {
            let pool = Pool::new(2);
            if round % 2 == 0 {
                let _ = pool.scoped_map(vec![round, round + 1], |_, x| x);
            }
            drop(pool);
        }
    }

    #[test]
    fn global_pool_is_shared_and_alive() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        let out = global().scoped_map(vec![5u64, 6], |_, x| x * x);
        assert_eq!(out, vec![25, 36]);
    }
}
