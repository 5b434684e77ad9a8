//! Parser for the `[status]` section (the paper's status definition sheet).

use comptest_model::value::{parse_number, Value};
use comptest_model::{MethodName, StatusDef, StatusName, StatusTable};

use crate::diagnostics::{SheetError, SheetWarning};
use crate::table::Table;

/// Converts a `[status]` table into a [`StatusTable`].
///
/// Columns: `status`, `method`, `attribut` (required); `var`, `nom`, `min`,
/// `max`, `d1`, `d2`, `d3` (optional).  `attribute` is accepted as an alias
/// for `attribut` (the paper uses the German spelling).
///
/// A `nom` cell containing a bit pattern (`0001B`) makes the row a
/// bit-pattern status; `min`/`max` must then be empty.
///
/// # Errors
///
/// Returns [`SheetError`] at the offending row for malformed cells.
pub fn parse_statuses(
    file: &str,
    table: &Table,
    warnings: &mut Vec<SheetWarning>,
) -> Result<StatusTable, SheetError> {
    if table.col("status").is_none() {
        return Err(SheetError::file_wide(
            file,
            "[status] is missing the `status` column",
        ));
    }
    for required in ["method"] {
        if table.col(required).is_none() {
            return Err(SheetError::file_wide(
                file,
                format!("[status] is missing the `{required}` column"),
            ));
        }
    }
    let attr_col = if table.col("attribut").is_some() {
        "attribut"
    } else if table.col("attribute").is_some() {
        "attribute"
    } else {
        return Err(SheetError::file_wide(
            file,
            "[status] is missing the `attribut` column",
        ));
    };

    let mut out = StatusTable::new();
    for row in &table.rows {
        let name = StatusName::new(table.require(file, row, "status")?)
            .map_err(|e| SheetError::new(file, row.line, e.to_string()))?;
        let method = MethodName::new(table.require(file, row, "method")?)
            .map_err(|e| SheetError::new(file, row.line, e.to_string()))?;
        let attribut = table.require(file, row, attr_col)?.to_owned();

        let var_cell = table.cell(row, "var");
        // The paper heads this column `var (x)`; normalisation turns that
        // into `var_(x)`, so check that alias too.
        let var_cell = if var_cell.is_empty() {
            table.cell(row, "var (x)")
        } else {
            var_cell
        };

        let nom_cell = table.cell(row, "nom");
        let min_cell = table.cell(row, "min");
        let max_cell = table.cell(row, "max");

        let mut def = match Value::parse_cell(nom_cell) {
            Value::Bits(bits) => {
                if !min_cell.is_empty() || !max_cell.is_empty() {
                    return Err(SheetError::new(
                        file,
                        row.line,
                        format!("status {name}: bit-pattern statuses take no min/max"),
                    ));
                }
                if !var_cell.is_empty() {
                    return Err(SheetError::new(
                        file,
                        row.line,
                        format!("status {name}: bit-pattern statuses take no scaling var"),
                    ));
                }
                StatusDef::bits(name.clone(), method, attribut, bits)
            }
            _ => {
                let nom = parse_opt_number(file, row.line, &name, "nom", nom_cell)?;
                let min = parse_opt_number(file, row.line, &name, "min", min_cell)?;
                let max = parse_opt_number(file, row.line, &name, "max", max_cell)?;
                let mut def = StatusDef {
                    name: name.clone(),
                    method,
                    attribut,
                    var: None,
                    nom,
                    min,
                    max,
                    bits: None,
                    d1: None,
                    d2: None,
                    d3: None,
                };
                if !var_cell.is_empty() {
                    def = def.with_var(var_cell);
                }
                def
            }
        };

        def.d1 = parse_opt_number(file, row.line, &name, "d1", table.cell(row, "d1"))?;
        def.d2 = parse_opt_number(file, row.line, &name, "d2", table.cell(row, "d2"))?;
        def.d3 = parse_opt_number(file, row.line, &name, "d3", table.cell(row, "d3"))?;

        if out.insert(def).is_some() {
            warnings.push(SheetWarning::new(
                file,
                row.line,
                format!("status {name} redefined; the later row wins"),
            ));
        }
    }
    Ok(out)
}

fn parse_opt_number(
    file: &str,
    line: usize,
    status: &StatusName,
    col: &str,
    cell: &str,
) -> Result<Option<f64>, SheetError> {
    if cell.is_empty() {
        return Ok(None);
    }
    parse_number(cell)
        .map(Some)
        .map_err(|e| SheetError::new(file, line, format!("status {status}, column `{col}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::parse_csv;
    use comptest_model::{Env, StatusBound};

    fn table(text: &str) -> Table {
        let recs = parse_csv("t.cts", 1, text).unwrap();
        Table::from_records("t.cts", "status", recs).unwrap()
    }

    /// The paper's status table, normalised as the `comptest_model::status`
    /// module docs list.
    fn paper_table() -> Table {
        table(
            "status, method, attribut, var, nom, min, max, d1\n\
             Off,    put_can, data,    ,    0001B, , , \n\
             Open,   put_r,   r,       ,    0,    0,    2,    0.01\n\
             Closed, put_r,   r,       ,    INF,  5000, INF,  0.01\n\
             0,      put_can, data,    ,    0B, , , \n\
             1,      put_can, data,    ,    1B, , , \n\
             Lo,     get_u,   u,       UBATT, 0,  0,    0.3, \n\
             Ho,     get_u,   u,       UBATT, 1,  0.7,  1.1, ",
        )
    }

    #[test]
    fn parses_paper_status_table() {
        let mut warnings = Vec::new();
        let t = parse_statuses("t.cts", &paper_table(), &mut warnings).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(t.len(), 7);

        let ho = t.get_str("ho").unwrap();
        assert_eq!(ho.var.as_deref(), Some("ubatt"));
        let r = ho.resolve(&Env::with_ubatt(12.0)).unwrap();
        match r.bound {
            StatusBound::Numeric { lo, hi, .. } => {
                assert!((lo - 8.4).abs() < 1e-9);
                assert!((hi - 13.2).abs() < 1e-9);
            }
            _ => panic!("Ho must be numeric"),
        }

        let off = t.get_str("off").unwrap();
        assert_eq!(off.bits.unwrap().to_string(), "0001B");

        let closed = t.get_str("closed").unwrap();
        assert_eq!(closed.nom, Some(f64::INFINITY));
        assert_eq!(closed.min, Some(5000.0));
        assert_eq!(closed.max, Some(f64::INFINITY));
        assert_eq!(closed.d1, Some(0.01));
    }

    #[test]
    fn numeric_statuses_named_by_digits() {
        let t = parse_statuses("t.cts", &paper_table(), &mut Vec::new()).unwrap();
        // `0` and `1` are bit statuses despite their numeric-looking names.
        assert!(t.get_str("0").unwrap().bits.is_some());
        assert!(t.get_str("1").unwrap().bits.is_some());
    }

    #[test]
    fn bits_with_minmax_rejected() {
        let t = table("status, method, attribut, nom, min, max\nX, put_can, data, 1B, 0, 1");
        let err = parse_statuses("t.cts", &t, &mut Vec::new()).unwrap_err();
        assert!(err.message.contains("no min/max"));
    }

    #[test]
    fn bits_with_var_rejected() {
        let t = table("status, method, attribut, var, nom\nX, put_can, data, UBATT, 1B");
        let err = parse_statuses("t.cts", &t, &mut Vec::new()).unwrap_err();
        assert!(err.message.contains("no scaling var"));
    }

    #[test]
    fn bad_number_reports_row() {
        let t = table("status, method, attribut, nom\nX, put_u, u, twelve");
        let err = parse_statuses("t.cts", &t, &mut Vec::new()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("`nom`"));
    }

    #[test]
    fn redefinition_warns() {
        let t = table("status, method, attribut, nom\nX, put_u, u, 1\nx, put_u, u, 2");
        let mut warnings = Vec::new();
        let table = parse_statuses("t.cts", &t, &mut warnings).unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(table.get_str("X").unwrap().nom, Some(2.0));
    }

    #[test]
    fn attribute_alias_accepted() {
        let t = table("status, method, attribute, nom\nX, put_u, u, 1");
        let parsed = parse_statuses("t.cts", &t, &mut Vec::new()).unwrap();
        assert_eq!(parsed.get_str("X").unwrap().attribut, "u");
    }

    #[test]
    fn missing_columns_rejected() {
        let t = table("status, attribut\nX, u");
        assert!(parse_statuses("t.cts", &t, &mut Vec::new())
            .unwrap_err()
            .message
            .contains("`method`"));
        let t = table("status, method\nX, put_u");
        assert!(parse_statuses("t.cts", &t, &mut Vec::new())
            .unwrap_err()
            .message
            .contains("`attribut`"));
    }
}
