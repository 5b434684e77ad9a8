//! Case-insensitive identifier newtypes.
//!
//! The paper's sheets mix spellings freely (`INT_ILL` in the test sheet,
//! `int_ill` in the generated XML, `UBATT`/`ubatt` in expressions).  All name
//! types therefore preserve the original spelling for display but compare,
//! hash and order **ASCII-case-insensitively**.
//!
//! # Representation
//!
//! Every identifier type — [`SignalName`](crate::SignalName),
//! [`PinId`](crate::PinId), [`MethodName`](crate::MethodName),
//! [`StatusName`](crate::StatusName) and the stand's `ResourceId` — is
//! defined by [`define_name!`](crate::define_name) over an `Arc<str>`. A
//! name is written once in a sheet and then passed through codegen,
//! planning, footprint keys, actions and results; cloning it is a
//! reference-count increment, never a copy of its text. `new` builds the
//! `Arc<str>` straight from the borrowed text, so parsing and cache
//! decoding allocate once per name.
//!
//! # `Debug` is part of the cache-key contract
//!
//! The derived `Debug` of a newtype over `Arc<str>` prints exactly what one
//! over `String` printed: `SignalName("INT_ILL")`. Full cache keys hash a
//! device's `Debug` rendering (`comptest_core::hash::hash_device`), names
//! included, so the rendering must not change with the representation — or
//! every on-disk cache record keyed that way would go cold. Keep the derive.

use std::error::Error;
use std::fmt;

/// Error returned when constructing a name type from an invalid string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidNameError {
    kind: &'static str,
    offending: String,
}

impl InvalidNameError {
    pub(crate) fn new(kind: &'static str, offending: impl Into<String>) -> Self {
        Self {
            kind,
            offending: offending.into(),
        }
    }

    /// The offending input string.
    pub fn offending(&self) -> &str {
        &self.offending
    }
}

impl fmt::Display for InvalidNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} name {:?}: must be non-empty ASCII of [A-Za-z0-9_.-]",
            self.kind, self.offending
        )
    }
}

impl Error for InvalidNameError {}

/// Checks an identifier's character set; `kind` names the identifier type
/// in the error. Used by [`define_name!`](crate::define_name).
#[doc(hidden)]
pub fn validate_name(kind: &'static str, s: &str) -> Result<(), InvalidNameError> {
    let ok = !s.is_empty()
        && s.is_ascii()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(InvalidNameError::new(kind, s))
    }
}

/// Compares two strings ASCII-case-insensitively, byte-wise. Used by
/// [`define_name!`](crate::define_name).
#[doc(hidden)]
pub fn cmp_ignore_case(a: &str, b: &str) -> std::cmp::Ordering {
    let la = a.bytes().map(|b| b.to_ascii_lowercase());
    let lb = b.bytes().map(|b| b.to_ascii_lowercase());
    la.cmp(lb)
}

/// Defines a validated, case-insensitive identifier newtype over an
/// `Arc<str>` (see the [module docs](crate::name) for why).
///
/// The generated type has `new`, `as_str`, `key`, `Display`,
/// case-insensitive `Eq`/`Ord`/`Hash`, comparison with `str`, `FromStr` and
/// `AsRef<str>`; invalid input fails with an `InvalidNameError` saying
/// `invalid <kind> name`.
///
/// ```
/// comptest_model::define_name!(
///     /// The name of a harness connector.
///     ConnectorName,
///     "connector"
/// );
///
/// let x = ConnectorName::new("X1_A").unwrap();
/// assert_eq!(x, "x1_a");
/// assert_eq!(format!("{x:?}"), r#"ConnectorName("X1_A")"#);
/// assert_eq!(
///     ConnectorName::new("X1/A").unwrap_err().to_string(),
///     "invalid connector name \"X1/A\": must be non-empty ASCII of [A-Za-z0-9_.-]"
/// );
/// ```
#[macro_export]
macro_rules! define_name {
    ($(#[$meta:meta])* $T:ident, $kind:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $T(::std::sync::Arc<str>);

        impl $T {
            /// Creates a new name, validating the character set. The text is
            /// copied once, into the shared `Arc<str>`.
            ///
            /// # Errors
            ///
            /// Returns an `InvalidNameError` if the string is empty or
            /// contains characters outside `[A-Za-z0-9_.-]`.
            pub fn new(s: impl AsRef<str>) -> Result<Self, $crate::InvalidNameError> {
                let s = s.as_ref();
                $crate::name::validate_name($kind, s)?;
                Ok(Self(::std::sync::Arc::from(s)))
            }

            /// The name exactly as written in the source sheet.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// Canonical lowercase key (used for map lookups and XML output).
            pub fn key(&self) -> String {
                self.0.to_ascii_lowercase()
            }
        }

        impl ::std::fmt::Display for $T {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl PartialEq for $T {
            fn eq(&self, other: &Self) -> bool {
                self.0.eq_ignore_ascii_case(&other.0)
            }
        }

        impl Eq for $T {}

        impl PartialEq<str> for $T {
            fn eq(&self, other: &str) -> bool {
                self.0.eq_ignore_ascii_case(other)
            }
        }

        impl PartialEq<&str> for $T {
            fn eq(&self, other: &&str) -> bool {
                self.0.eq_ignore_ascii_case(other)
            }
        }

        impl ::std::hash::Hash for $T {
            fn hash<H: ::std::hash::Hasher>(&self, state: &mut H) {
                for b in self.0.bytes() {
                    state.write_u8(b.to_ascii_lowercase());
                }
            }
        }

        impl PartialOrd for $T {
            fn partial_cmp(&self, other: &Self) -> Option<::std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $T {
            fn cmp(&self, other: &Self) -> ::std::cmp::Ordering {
                $crate::name::cmp_ignore_case(&self.0, &other.0)
            }
        }

        impl ::std::str::FromStr for $T {
            type Err = $crate::InvalidNameError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                Self::new(s)
            }
        }

        impl AsRef<str> for $T {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }
    };
}

#[cfg(test)]
mod tests {
    // The macro generates the full API; the test type only exercises parts
    // of it, so allow the rest to go unused here.
    #![allow(dead_code)]

    define_name!(
        /// Test-only name type.
        TestName,
        "test"
    );

    #[test]
    fn accepts_typical_names() {
        for s in [
            "INT_ILL",
            "ds_fl",
            "Sw1.1",
            "Mx4.2",
            "0",
            "1",
            "Lo",
            "REQ-IL-001",
        ] {
            assert!(TestName::new(s).is_ok(), "{s} should be valid");
        }
    }

    #[test]
    fn rejects_bad_names() {
        for s in ["", "has space", "umläut", "semi;colon", "tab\t"] {
            assert!(TestName::new(s).is_err(), "{s:?} should be invalid");
        }
    }

    #[test]
    fn case_insensitive_eq_hash_ord() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = TestName::new("INT_ILL").unwrap();
        let b = TestName::new("int_ill").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        // Display preserves the original spelling.
        assert_eq!(a.to_string(), "INT_ILL");
        assert_eq!(a.key(), "int_ill");
    }

    #[test]
    fn compares_to_str() {
        let a = TestName::new("Night").unwrap();
        assert_eq!(a, "NIGHT");
        assert_eq!(a, "night");
    }
}
