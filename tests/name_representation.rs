//! The five identifier types share their text: a clone is a reference
//! count, not a copy, while construction, `Debug` and comparison behave
//! exactly as for the owned-string representation they replaced.

use comptest::model::{MethodName, PinId, SignalName, StatusName};
use comptest::stand::ResourceId;

/// Runs the representation checks for one identifier type.
macro_rules! check_name_type {
    ($T:ident) => {{
        let text = String::from("Int_Ill.2");
        // `new` takes borrowed and owned text alike.
        let from_str = $T::new("Int_Ill.2").unwrap();
        let from_ref = $T::new(&text).unwrap();
        let from_owned = $T::new(text.clone()).unwrap();
        assert_eq!(from_str, from_ref);
        assert_eq!(from_ref, from_owned);
        assert_eq!(from_owned.as_str(), "Int_Ill.2");

        // A clone shares the text instead of copying it.
        let clone = from_str.clone();
        assert_eq!(clone.as_str().as_ptr(), from_str.as_str().as_ptr());
        // Separately constructed names own separate text.
        assert_ne!(from_ref.as_str().as_ptr(), from_str.as_str().as_ptr());

        // `Debug` renders like the owned-string newtype did: cache keys
        // hash renderings that contain these names.
        assert_eq!(
            format!("{from_str:?}"),
            concat!(stringify!($T), "(\"Int_Ill.2\")")
        );
        assert_eq!(
            format!("{:?}", vec![from_str.clone()]),
            concat!("[", stringify!($T), "(\"Int_Ill.2\")]")
        );

        // Case-insensitive semantics are unchanged.
        let upper = $T::new("INT_ILL.2").unwrap();
        assert_eq!(upper, from_str);
        assert_eq!(upper.cmp(&from_str), std::cmp::Ordering::Equal);
        assert_eq!(from_str.key(), "int_ill.2");
        assert_eq!(from_str.to_string(), "Int_Ill.2");
        assert!($T::new("no spaces").is_err());
    }};
}

#[test]
fn signal_names_share_their_text() {
    check_name_type!(SignalName);
}

#[test]
fn pin_ids_share_their_text() {
    check_name_type!(PinId);
}

#[test]
fn method_names_share_their_text() {
    check_name_type!(MethodName);
}

#[test]
fn status_names_share_their_text() {
    check_name_type!(StatusName);
}

#[test]
fn resource_ids_share_their_text() {
    check_name_type!(ResourceId);
}
