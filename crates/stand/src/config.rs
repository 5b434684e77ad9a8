//! Parsing `.stand` test-stand descriptions.
//!
//! The format mirrors the paper's two Section-4 tables plus an environment
//! block:
//!
//! ```text
//! [stand]
//! name = HIL-A
//! ubatt = 12.0
//!
//! [resources]
//! id,    method, attribut, min, max,     unit, capacity
//! Ress1, get_u,  u,        -60, 60,      V,
//! Ress2, put_r,  r,        0,   1.00E+06, Ohm,
//! Ress3, put_r,  r,        0,   2.00E+05, Ohm,
//!
//! [matrix]
//! point, resource, pin
//! Sw1.1, Ress1,    INT_ILL_F
//! Sw1.2, Ress1,    INT_ILL_R
//! Mx1.2, Ress2,    DS_FL
//! ```
//!
//! Rows with the same resource `id` merge into one multi-capability
//! resource.  Every `[stand]` key other than `name` must be numeric and
//! becomes an expression-environment variable (`ubatt`, `temp`, …).

use std::fs;
use std::path::Path;

use comptest_model::value::parse_number;
use comptest_model::{Env, MethodName, PinId, Unit};
use comptest_sheets::csv::parse_csv;
use comptest_sheets::sections::{parse_key_values, split_sections};
use comptest_sheets::table::Table;

use crate::error::StandError;
use crate::resource::{Capability, Resource, ResourceId};
use crate::stand::TestStand;

impl TestStand {
    /// Loads a `.stand` file. The stand name defaults to the file stem.
    ///
    /// # Errors
    ///
    /// Returns [`StandError::Config`] for I/O or parse problems.
    pub fn load(path: impl AsRef<Path>) -> Result<TestStand, StandError> {
        let path = path.as_ref();
        let file = path.display().to_string();
        let text = fs::read_to_string(path)
            .map_err(|e| StandError::config(&file, 0, format!("cannot read stand: {e}")))?;
        let mut stand = Self::parse_str(&file, &text)?;
        if stand.name().is_empty() {
            if let Some(stem) = path.file_stem() {
                stand = TestStand::renamed(stand, stem.to_string_lossy().into_owned());
            }
        }
        Ok(stand)
    }

    /// Parses a stand description from text; `file` is used in diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`StandError::Config`] on malformed sections, rows or values.
    pub fn parse_str(file: &str, text: &str) -> Result<TestStand, StandError> {
        let sections = split_sections(file, text)
            .map_err(|e| StandError::config(&e.file, e.line, e.message))?;

        let mut name = String::new();
        let mut env = Env::new();
        let mut stand: Option<TestStand> = None;
        let mut saw_resources = false;

        for section in &sections {
            match section.header.to_ascii_lowercase().as_str() {
                "stand" => {
                    parse_key_values(file, section, |line, key, value| {
                        match key.to_ascii_lowercase().as_str() {
                            "name" => {
                                name = value.to_owned();
                                Ok(())
                            }
                            _ => {
                                let v = parse_number(value).map_err(|e| {
                                    comptest_sheets::SheetError::new(
                                        file,
                                        line,
                                        format!("[stand] {key}: {e}"),
                                    )
                                })?;
                                env.set(key, v);
                                Ok(())
                            }
                        }
                    })
                    .map_err(|e| StandError::config(&e.file, e.line, e.message))?;
                }
                "resources" => {
                    let mut s = TestStand::new(name.clone(), env.clone());
                    parse_resources(file, section, &mut s)?;
                    saw_resources = true;
                    stand = Some(match stand {
                        // [stand] may come after [resources]; keep matrix if set.
                        Some(old) => merge_sections(old, s),
                        None => s,
                    });
                }
                "matrix" => {
                    let s = stand.get_or_insert_with(|| TestStand::new(name.clone(), env.clone()));
                    parse_matrix(file, section, s)?;
                }
                other => {
                    return Err(StandError::config(
                        file,
                        section.header_line,
                        format!("unknown section [{other}]"),
                    ))
                }
            }
        }

        if !saw_resources {
            return Err(StandError::config(file, 0, "missing [resources] section"));
        }
        let stand = stand.expect("resources section seen");
        // [stand] metadata may have been parsed after construction.
        let mut stand = TestStand::renamed(stand, name);
        *stand.env_mut() = env;
        Ok(stand)
    }

    /// Returns the stand with a different name (configs are assembled in
    /// stages).
    pub(crate) fn renamed(stand: TestStand, name: String) -> TestStand {
        let mut s = TestStand::new(name, stand.env().clone());
        for r in stand.resources() {
            s.push_resource(r.clone());
        }
        for c in stand.matrix().connections() {
            s.matrix_mut()
                .add(c.point.clone(), c.resource.clone(), c.pin.clone());
        }
        s
    }
}

fn merge_sections(mut base: TestStand, extra: TestStand) -> TestStand {
    for r in extra.resources() {
        base.push_resource(r.clone());
    }
    for c in extra.matrix().connections() {
        base.matrix_mut()
            .add(c.point.clone(), c.resource.clone(), c.pin.clone());
    }
    base
}

fn parse_resources(
    file: &str,
    section: &comptest_sheets::sections::Section,
    stand: &mut TestStand,
) -> Result<(), StandError> {
    let records = parse_csv(file, section.body_first_line, &section.body)
        .map_err(|e| StandError::config(&e.file, e.line, e.message))?;
    let table = Table::from_records(file, "resources", records)
        .map_err(|e| StandError::config(&e.file, e.line, e.message))?;
    for required in ["id", "method", "attribut", "min", "max"] {
        if table.col(required).is_none() {
            return Err(StandError::config(
                file,
                section.header_line,
                format!("[resources] is missing the `{required}` column"),
            ));
        }
    }

    let mut resources: Vec<Resource> = Vec::new();
    for row in &table.rows {
        let line = row.line;
        let id = ResourceId::new(table.cell(row, "id"))
            .map_err(|e| StandError::config(file, line, e.to_string()))?;
        let method = MethodName::new(table.cell(row, "method"))
            .map_err(|e| StandError::config(file, line, e.to_string()))?;
        let attribut = table.cell(row, "attribut").to_owned();
        if attribut.is_empty() {
            return Err(StandError::config(file, line, "missing attribut"));
        }
        // CAN-style capabilities have no meaningful range; allow empty cells.
        let min_cell = table.cell(row, "min");
        let max_cell = table.cell(row, "max");
        let min = if min_cell.is_empty() {
            0.0
        } else {
            parse_number(min_cell).map_err(|e| StandError::config(file, line, e.to_string()))?
        };
        let max = if max_cell.is_empty() {
            0.0
        } else {
            parse_number(max_cell).map_err(|e| StandError::config(file, line, e.to_string()))?
        };
        if min > max {
            return Err(StandError::config(
                file,
                line,
                format!("resource {id}: min {min} exceeds max {max}"),
            ));
        }
        let unit_cell = table.cell(row, "unit");
        let unit =
            Unit::parse(unit_cell).map_err(|e| StandError::config(file, line, e.to_string()))?;
        let capability = Capability::new(method, attribut, min, max, unit);

        let capacity_cell = table.cell(row, "capacity");
        let capacity: Option<usize> = if capacity_cell.is_empty() {
            None
        } else {
            Some(capacity_cell.parse().map_err(|_| {
                StandError::config(file, line, format!("bad capacity {capacity_cell:?}"))
            })?)
        };

        match resources.iter_mut().find(|r| r.id == id) {
            Some(r) => {
                r.capabilities.push(capability);
                if let Some(c) = capacity {
                    r.capacity = c.max(1);
                }
            }
            None => {
                let mut r = Resource::new(id).with_capability(capability);
                if let Some(c) = capacity {
                    r = r.with_capacity(c);
                }
                resources.push(r);
            }
        }
    }
    for r in resources {
        stand.push_resource(r);
    }
    Ok(())
}

fn parse_matrix(
    file: &str,
    section: &comptest_sheets::sections::Section,
    stand: &mut TestStand,
) -> Result<(), StandError> {
    let records = parse_csv(file, section.body_first_line, &section.body)
        .map_err(|e| StandError::config(&e.file, e.line, e.message))?;
    let table = Table::from_records(file, "matrix", records)
        .map_err(|e| StandError::config(&e.file, e.line, e.message))?;
    for required in ["point", "resource", "pin"] {
        if table.col(required).is_none() {
            return Err(StandError::config(
                file,
                section.header_line,
                format!("[matrix] is missing the `{required}` column"),
            ));
        }
    }
    for row in &table.rows {
        let line = row.line;
        let point = PinId::new(table.cell(row, "point"))
            .map_err(|e| StandError::config(file, line, e.to_string()))?;
        let resource = ResourceId::new(table.cell(row, "resource"))
            .map_err(|e| StandError::config(file, line, e.to_string()))?;
        let pin = PinId::new(table.cell(row, "pin"))
            .map_err(|e| StandError::config(file, line, e.to_string()))?;
        if stand.resource(&resource).is_none() {
            return Err(StandError::config(
                file,
                line,
                format!("[matrix] references unknown resource {resource}"),
            ));
        }
        stand.matrix_mut().add(point, resource, pin);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's stand A, verbatim from Section 4 (with the get_r → put_r
    /// normalisation and the CAN interface listed in the
    /// `comptest_model::status` module docs).
    pub(crate) const STAND_A: &str = "\
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

    #[test]
    fn parses_paper_stand() {
        let stand = TestStand::parse_str("a.stand", STAND_A).unwrap();
        assert_eq!(stand.name(), "HIL-A");
        assert_eq!(stand.env().get("ubatt"), Some(12.0));
        assert_eq!(stand.resources().len(), 4);
        let ress2 = stand.resource(&ResourceId::new("Ress2").unwrap()).unwrap();
        assert_eq!(ress2.capabilities[0].max, 1.0e6);
        let can = stand.resource(&ResourceId::new("Can1").unwrap()).unwrap();
        assert_eq!(can.capacity, 16);
        assert_eq!(can.capabilities.len(), 2, "rows merged per id");
        assert_eq!(stand.matrix().len(), 11);
    }

    #[test]
    fn scientific_notation_with_decimal_comma() {
        // The paper writes 1,00E+06 — quoted so the comma survives CSV.
        let text = STAND_A.replace("1.00E+06", "\"1,00E+06\"");
        let stand = TestStand::parse_str("a.stand", &text).unwrap();
        let ress2 = stand.resource(&ResourceId::new("Ress2").unwrap()).unwrap();
        assert_eq!(ress2.capabilities[0].max, 1.0e6);
    }

    #[test]
    fn missing_resources_section() {
        let err = TestStand::parse_str("x", "[stand]\nname = a\n").unwrap_err();
        assert!(err.to_string().contains("[resources]"));
    }

    #[test]
    fn unknown_section_rejected() {
        let err = TestStand::parse_str("x", "[gadgets]\nid\n").unwrap_err();
        assert!(err.to_string().contains("unknown section"));
    }

    #[test]
    fn matrix_referencing_unknown_resource() {
        let text = "\
[resources]
id, method, attribut, min, max, unit
R1, put_r, r, 0, 10, Ohm

[matrix]
point, resource, pin
P1, GHOST, A
";
        let err = TestStand::parse_str("x", text).unwrap_err();
        assert!(err.to_string().contains("GHOST"));
    }

    #[test]
    fn bad_cells_report_lines() {
        let text = "\
[resources]
id, method, attribut, min, max, unit
R1, put_r, r, 10, 0, Ohm
";
        let err = TestStand::parse_str("x", text).unwrap_err();
        assert!(err.to_string().contains("x:3"), "{err}");
        assert!(err.to_string().contains("exceeds"));

        let text = "\
[resources]
id, method, attribut, min, max, unit, capacity
R1, put_r, r, 0, 10, Ohm, many
";
        assert!(TestStand::parse_str("x", text)
            .unwrap_err()
            .to_string()
            .contains("capacity"));

        let text = "[stand]\nubatt = high\n[resources]\nid, method, attribut, min, max\nR1, put_r, r, 0, 1\n";
        assert!(TestStand::parse_str("x", text)
            .unwrap_err()
            .to_string()
            .contains("ubatt"));
    }

    #[test]
    fn stand_section_after_resources_still_applies() {
        let text = "\
[resources]
id, method, attribut, min, max, unit
R1, put_r, r, 0, 10, Ohm

[stand]
name = late
ubatt = 13.8
";
        let stand = TestStand::parse_str("x", text).unwrap();
        assert_eq!(stand.name(), "late");
        assert_eq!(stand.env().get("ubatt"), Some(13.8));
        assert_eq!(stand.resources().len(), 1);
    }

    #[test]
    fn load_from_disk_defaults_name_to_stem() {
        let dir = std::env::temp_dir().join("comptest_stand_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_rig.stand");
        std::fs::write(&path, STAND_A.replace("name = HIL-A\n", "")).unwrap();
        let stand = TestStand::load(&path).unwrap();
        assert_eq!(stand.name(), "bench_rig");
        assert!(TestStand::load(dir.join("missing.stand")).is_err());
    }
}
