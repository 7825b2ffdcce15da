//! The build's version identity.
//!
//! Combines the Cargo package version with the git-describe revision
//! embedded at compile time (see `build.rs`). The resulting string is
//! what `gfab --version` prints, what
//! [`Trace::to_jsonl_tagged`](crate::telemetry::Trace::to_jsonl_tagged)
//! stamps into trace JSONL headers, and what
//! the fuzz corpus records as each case file's `producer` — so every
//! persisted artifact names the exact build that wrote it.

/// The git-describe output captured at build time (`--always --dirty
/// --tags`), or `"unknown"` when the build did not run inside a git
/// checkout.
pub const GIT_DESCRIBE: &str = env!("GFAB_GIT_DESCRIBE");

/// The full version string, e.g. `gfab 0.3.0+249652a` (or plain
/// `gfab 0.3.0` when no git metadata was available at build time).
#[must_use]
pub fn version_string() -> String {
    if GIT_DESCRIBE == "unknown" {
        format!("gfab {}", env!("CARGO_PKG_VERSION"))
    } else {
        format!("gfab {}+{}", env!("CARGO_PKG_VERSION"), GIT_DESCRIBE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_string_names_the_package_version() {
        let v = version_string();
        assert!(v.starts_with(&format!("gfab {}", env!("CARGO_PKG_VERSION"))));
        assert!(!GIT_DESCRIBE.is_empty());
    }
}
