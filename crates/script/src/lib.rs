//! Portable XML test scripts.
//!
//! The paper's pivotal artifact is an XML file "that can be interpreted by
//! any test stand".  Its core content is a sequence of signal statements,
//! each wrapping a method statement:
//!
//! ```xml
//! <signal name="int_ill">
//!   <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)"/>
//! </signal>
//! ```
//!
//! This crate provides:
//!
//! * [`xml`] — a small, dependency-free XML element tree with writer and
//!   parser (exactly the subset scripts need);
//! * [`TestScript`] — the script model: header, embedded signal table, init
//!   statements, and timed steps;
//! * [`generate`] — code generation from a
//!   [`TestSuite`](comptest_model::TestSuite) (the paper's "tool … for
//!   automatic generation of code");
//! * round-tripping: [`TestScript::to_xml`] / [`TestScript::parse_xml`].
//!
//! # Example
//!
//! ```
//! use comptest_sheets::Workbook;
//! use comptest_script::generate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let wb = Workbook::parse_str("mini.cts", "\
//! [signals]
//! name, kind, direction
//! LAMP, pin:LAMP_F/LAMP_R, output
//!
//! [status]
//! status, method, attribut, var, nom, min, max
//! Lit, get_u, u, UBATT, 1, 0.7, 1.1
//!
//! [test smoke]
//! step, dt, LAMP
//! 0, 0.5, Lit
//! ")?;
//! let script = generate(&wb.suite, "smoke")?;
//! let xml = script.to_xml();
//! assert!(xml.contains("u_max=\"(1.1*ubatt)\""));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod lint;
pub mod model;
pub mod xml;

pub use codegen::{generate, generate_all, generate_each, CodegenError};
pub use lint::{lint, lint_with, required_variables, LintFinding, LintLevel};
pub use model::{AttrValue, ParseScriptError, ScriptStep, Statement, TestScript};
