//! The thread-count precedence of `fare_rt::par`.
//!
//! Kept in its own test binary: the unit tests of `par` set the thread
//! count from concurrent test threads, which would race the exact
//! values checked here.

use fare_rt::par::{current_threads, set_threads};

#[test]
fn set_threads_wins_over_the_resolved_default() {
    let default = current_threads();
    assert!(default > 0);
    let env = std::env::var("FARE_RT_THREADS").ok();
    if let Some(n) = env.and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0) {
        assert_eq!(default, n, "FARE_RT_THREADS beats the detected count");
    }
    for n in [1, 3, default + 5] {
        set_threads(n);
        assert_eq!(current_threads(), n);
    }
    // 0 restores the default, which was resolved once and is kept.
    set_threads(0);
    assert_eq!(current_threads(), default);
}
