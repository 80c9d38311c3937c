//! Host-machine introspection for auto-sized worker counts.
//!
//! A sweep's worker pool wants to know how wide this machine is; one copy
//! of the `available_parallelism()` fallback keeps every caller on the
//! same answer.

/// Detected hardware parallelism, falling back to `1` when the host
/// refuses to say (sandboxes and exotic platforms return an error from
/// [`std::thread::available_parallelism`]).
///
/// This is the single source of truth for the workspace's `0 = auto`
/// knob: `SweepConfig::workers` resolves through here.
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::host_parallelism;

    #[test]
    fn at_least_one_and_stable() {
        let a = host_parallelism();
        assert!(a >= 1);
        // The host does not change mid-process; auto-resolved knobs may
        // assume repeated calls agree.
        assert_eq!(a, host_parallelism());
    }
}
