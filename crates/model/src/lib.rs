//! Data model for test-stand-independent component tests.
//!
//! This crate contains the vocabulary of the component-test methodology
//! described by Brinkmeyer (*A New Approach to Component Testing*, DATE 2005):
//!
//! * [`SignalDef`] — an input/output signal of the device under test (DUT),
//!   either one or two electrical pins or a CAN-mapped bit field;
//! * [`MethodSpec`] / [`MethodRegistry`] — the abstract instrument methods a
//!   test stand may implement (`put_r`, `get_u`, `put_can`, …);
//! * [`StatusDef`] / [`StatusTable`] — named signal statuses (`Open`, `Ho`,
//!   …) that bind a method, an attribute and nominal/min/max values, possibly
//!   scaled by an environment variable such as `UBATT`;
//! * [`TestStep`] / [`TestCase`] / [`TestSuite`] — the test definition sheet:
//!   per step a duration `Δt` and status assignments to signals;
//! * [`Expr`] / [`Env`] — the small arithmetic expression language used in
//!   generated test scripts (e.g. `(1.1*ubatt)`);
//! * [`SimTime`] — fixed-point simulation time;
//! * [`Value`] — numbers (including `INF`) and bit patterns such as `0001B`.
//!
//! Everything here is pure data plus semantics; parsing of the sheet formats
//! lives in `comptest-sheets`, XML script generation in `comptest-script`,
//! and execution in `comptest-stand` / `comptest-core`.
//!
//! # Example
//!
//! ```
//! use comptest_model::{Env, Expr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let expr = Expr::parse("(1.1*ubatt)")?;
//! let env = Env::with_ubatt(12.0);
//! assert!((expr.eval(&env)? - 13.2).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
pub mod name;

pub mod error;
pub mod expr;
pub mod method;
pub mod signal;
pub mod status;
pub mod testdef;
pub mod time;
pub mod units;
pub mod value;

pub use error::ModelError;
pub use expr::{Env, Expr};
pub use method::{AttrKind, MethodDirection, MethodName, MethodRegistry, MethodSpec};
pub use name::InvalidNameError;
pub use signal::{CanFrameId, PinId, SignalDef, SignalDirection, SignalKind, SignalName};
pub use status::{ResolvedStatus, StatusBound, StatusDef, StatusName, StatusTable};
pub use testdef::{Assignment, TestCase, TestStep, TestSuite, ValidationIssue};
pub use time::SimTime;
pub use units::Unit;
pub use value::{BitPattern, Value};
