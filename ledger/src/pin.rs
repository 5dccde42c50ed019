//! CPU affinity for single-threaded passes.
//!
//! On a shared host one CPU can be slowed by another tenant for tens of
//! seconds while the other runs clean, and a lone busy thread stays where
//! the scheduler first put it. A single-threaded workload therefore pins
//! pass `k` to the `k`-th allowed CPU in turn: every run samples each CPU
//! equally, and its figures no longer depend on that first placement.

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's allowed CPUs, restored on drop.
pub struct Rotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
}

impl Rotation {
    /// `None` when the allowed set cannot be read.
    pub fn new() -> Option<Rotation> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (rc == 0 && !cpus.is_empty()).then_some(Rotation { allowed, cpus })
    }

    /// Pins the calling thread to the `k`-th allowed CPU, cyclically.
    pub fn pin(&self, k: usize) {
        let cpu = self.cpus[k % self.cpus.len()];
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one);
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        set(&self.allowed);
    }
}

/// Best effort: a refused mask leaves the thread where it was, which
/// costs steadiness, not correctness.
fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr());
    }
}
