//! `pool_for` refuses a width above its cap before it builds anything.
//! The test counts the process's threads in `/proc/self/task`, so this
//! file holds exactly one `#[test]`: no concurrent test can start
//! threads inside its window.

use eblcio_codec::parallel::pool_for;
use eblcio_codec::CodecError;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[test]
fn an_over_wide_pool_is_refused_before_any_thread_starts() {
    let before = threads();
    for width in [usize::MAX, 1025] {
        let refused = pool_for(width).err();
        assert_eq!(refused, Some(CodecError::TooManyThreads { threads: width, max: 1024 }));
        assert_eq!(threads(), before, "asking for {width} threads started some");
    }
}
