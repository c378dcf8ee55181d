//! Host-speed calibration.
//!
//! The reference host is shared, and its speed drifts by a third over
//! minutes as neighbours come and go. The drift slows every CPU-bound
//! loop in the process about equally. So each run times a fixed kernel
//! between its passes, and scales its host-time metrics by
//! `REFERENCE_KERNEL_S / median kernel time`. That gives seconds on the
//! reference host at its quiet speed. The kernel is the benchmark's own
//! code, so no change to the workspace can speed it up or slow it down.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's median host seconds on the quiet reference host
/// (Xeon, family 6 model 143, 2 vCPUs under KVM).
pub const REFERENCE_KERNEL_S: f64 = 0.0085;

/// One run of the kernel, in host seconds. It models a 1024-set, 8-way
/// LRU cache with a hashed backing store, fed by a skewed address
/// stream. Like the simulator, it is branchy, indexes tables, and
/// hashes, so contention slows both alike.
pub fn kernel() -> f64 {
    const SETS: usize = 1024;
    const WAYS: usize = 8;
    let t = Instant::now();
    let mut tags = vec![[u64::MAX; WAYS]; SETS];
    let mut stamps = vec![[0u32; WAYS]; SETS];
    let mut backing: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 0x243f_6a88_85a3_08d3;
    let mut hits = 0u64;
    for step in 0..150_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x & 0xff < 200 {
            (x >> 8) % 4096
        } else {
            (x >> 8) % (1 << 20)
        };
        let set = line as usize % SETS;
        let tag = line / SETS as u64;
        match tags[set].iter().position(|&t| t == tag) {
            Some(way) => {
                hits += 1;
                stamps[set][way] = step;
            }
            None => {
                let victim = (0..WAYS)
                    .min_by_key(|&w| stamps[set][w])
                    .expect("a set has ways");
                if tags[set][victim] != u64::MAX {
                    *backing
                        .entry(tags[set][victim] * SETS as u64 + set as u64)
                        .or_default() += 1;
                }
                tags[set][victim] = tag;
                stamps[set][victim] = step;
                hits += backing.get(&line).copied().unwrap_or(0) & 1;
            }
        }
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64()
}
