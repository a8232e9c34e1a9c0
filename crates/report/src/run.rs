//! Panic-to-diagnostic wrapper shared by every CLI verification command.
//!
//! The simulation crates assert their invariants with panics (bad plan
//! knobs, impossible schedules), but a CLI run on user input should print
//! a one-line diagnostic and exit nonzero, never dump a backtrace. Each
//! `verify-*` command used to carry its own copy of this wrapper; they
//! all share [`catching`] now.

/// Runs `f`, converting a library panic into an `Err` so the caller can
/// print a one-line `label failed: reason` diagnostic and exit nonzero
/// instead of dumping a backtrace on bad user input.
///
/// # Examples
///
/// ```
/// use nvfs_report::catching;
///
/// let ok: Result<u32, String> = catching("demo", || Ok(7));
/// assert_eq!(ok, Ok(7));
///
/// let boom: Result<(), String> = catching("demo", || panic!("bad knob"));
/// assert_eq!(boom, Err("demo failed: bad knob".to_string()));
/// ```
pub fn catching<T>(label: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        Err(format!("{label} failed: {msg}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_through_ok_and_err() {
        assert_eq!(catching("t", || Ok(41)), Ok(41));
        assert_eq!(
            catching("t", || Err::<(), _>("plain error".to_string())),
            Err("plain error".to_string())
        );
    }

    #[test]
    fn converts_str_and_string_panics() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let s: Result<(), String> = catching("lbl", || panic!("static str"));
        let owned: Result<(), String> = catching("lbl", || panic!("{}", "owned".to_string()));
        std::panic::set_hook(hook);
        assert_eq!(s, Err("lbl failed: static str".to_string()));
        assert_eq!(owned, Err("lbl failed: owned".to_string()));
    }
}
