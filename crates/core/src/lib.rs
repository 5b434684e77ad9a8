//! The component-test execution engine — the paper's toolchain, assembled.
//!
//! `comptest-core` glues the substrate crates together into the workflow of
//! Brinkmeyer (*A New Approach to Component Testing*, DATE 2005):
//!
//! 1. sheets (`comptest-sheets`) define suites;
//! 2. code generation (`comptest-script`) turns tests into portable XML;
//! 3. a stand (`comptest-stand`) plans the script onto its own resources;
//! 4. this crate *executes* the plan against a simulated DUT
//!    (`comptest-dut`), producing verdicts, traces and reports.
//!
//! On top of single-test execution it provides the evaluation machinery of
//! the reproduction: [`campaign`] (many suites × stands × devices),
//! [`reference`](mod@reference) (the serial campaign the engine is
//! checked against), [`faultcamp`] (fault-injection coverage),
//! [`portability`] (which suites run on which stands) and [`coverage`]
//! (requirement-tag coverage).
//!
//! # Example — the full pipeline on one test
//!
//! ```
//! use comptest_core::{execute, ExecOptions};
//! use comptest_dut::ecus::interior_light;
//! use comptest_sheets::Workbook;
//! use comptest_script::generate;
//! use comptest_stand::{plan, TestStand};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let wb = Workbook::parse_str("demo.cts", "\
//! [signals]
//! name,    kind,                     direction, init
//! DS_FL,   pin:DS_FL,                input,     Closed
//! NIGHT,   can:0x2A0:0:1,            input,     0
//! INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,
//!
//! [status]
//! status, method,  attribut, var,   nom, min,  max
//! Open,   put_r,   r,        ,      0,   0,    2
//! Closed, put_r,   r,        ,      INF, 5000, INF
//! 0,      put_can, data,     ,      0B,  ,
//! 1,      put_can, data,     ,      1B,  ,
//! Lo,     get_u,   u,        UBATT, 0,   0,    0.3
//! Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1
//!
//! [test smoke]
//! step, dt,  DS_FL, NIGHT, INT_ILL
//! 0,    0.5, Open,  1,     Ho
//! 1,    0.5, Closed,,      Lo
//! ")?;
//! let script = generate(&wb.suite, "smoke")?;
//! let stand = TestStand::parse_str("a.stand", comptest_core::PAPER_STAND_A)?;
//! let plan = plan(&script, &stand)?;
//! let mut dut = interior_light::device(Default::default());
//! let result = execute(&plan, &mut dut, &ExecOptions::default());
//! assert!(result.passed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod coverage;
pub mod error;
pub mod exec;
pub mod faultcamp;
pub mod hash;
pub mod pipeline;
pub mod portability;
pub mod reference;
pub mod service;
pub mod sweep;
pub mod trace;
pub mod verdict;

pub use error::CoreError;
pub use exec::{execute, ExecOptions, RunState, SampleMode, StepProbe, TestRun};
pub use hash::{hash_device, hash_exec_options, hash_script, hash_stand, hash_suite, CellKey};
pub use pipeline::{run_suite, run_test};
pub use trace::{Trace, TraceEvent};
pub use verdict::{CheckResult, Measured, StepResult, SuiteResult, TestResult, Verdict};

/// The paper's stand A description (Section 4's resource and matrix tables,
/// with the normalisations listed in the [`comptest_model::status`] module
/// docs). Also available on disk
/// as `assets/stand_a.stand`; embedded here so doctests and benches need no
/// file I/O.
pub const PAPER_STAND_A: &str = "\
[stand]
name = HIL-A
ubatt = 12.0

[resources]
id,    method,  attribut, min, max,      unit, capacity
Ress1, get_u,   u,        -60, 60,       V,
Ress2, put_r,   r,        0,   1.00E+06, Ohm,
Ress3, put_r,   r,        0,   2.00E+05, Ohm,
Can1,  put_can, data,     ,    ,         ,     16
Can1,  get_can, data,     ,    ,         ,

[matrix]
point, resource, pin
Sw1.1, Ress1,    INT_ILL_F
Sw1.2, Ress1,    INT_ILL_R
Mx1.2, Ress2,    DS_FL
Mx2.2, Ress2,    DS_FR
Mx3.2, Ress2,    DS_RL
Mx4.2, Ress2,    DS_RR
Mx1.1, Ress3,    DS_FL
Mx2.1, Ress3,    DS_FR
Mx3.1, Ress3,    DS_RL
Mx4.1, Ress3,    DS_RR
Port1, Can1,     CAN0
";
