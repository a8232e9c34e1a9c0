//! The workspace's one config/artifact hashing primitive.
//!
//! Every digest in the toolkit — config fingerprints in run manifests and
//! the `nvfs bench` cross-job-count artifact gate — goes through this
//! 64-bit FNV-1a so the two can never disagree about what "the same
//! configuration" means. FNV-1a is not cryptographic; it only needs to be
//! stable across platforms and sensitive to any byte change, which it is.

/// Streaming 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use nvfs_obs::digest::Digest;
///
/// let mut split = Digest::new();
/// split.update("model=unified");
/// split.update(" nvram=1048576");
/// let mut whole = Digest::new();
/// whole.update("model=unified nvram=1048576");
/// assert_eq!(split.hex(), whole.hex());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Digest {
    /// A fresh hasher.
    pub fn new() -> Self {
        Digest { state: FNV_OFFSET }
    }

    /// Feeds `s` into the hash.
    pub fn update(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest as a fixed-width lowercase hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }

    /// The raw 64-bit digest value — e.g. the checksum an LFS segment
    /// summary block stores. `hex()` is this value formatted.
    pub fn value(&self) -> u64 {
        self.state
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(s: &str) -> Digest {
        let mut d = Digest::new();
        d.update(s);
        d
    }

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(of("").hex(), "cbf29ce484222325");
        assert_eq!(of("a").hex(), "af63dc4c8601ec8c");
        assert_eq!(of("foobar").hex(), "85944171f73967e8");
    }

    #[test]
    fn sensitive_to_any_change() {
        assert_ne!(of("seed=42").hex(), of("seed=43").hex());
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut d = Digest::new();
        d.update("abc");
        d.update("def");
        assert_eq!(d.hex(), of("abcdef").hex());
    }
}
