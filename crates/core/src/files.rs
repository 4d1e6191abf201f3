//! The one gate every file the tools read back goes through: a campaign
//! report, a triage bundle, the tracked paper body.
//!
//! [`load`] parses the text, refuses a file whose `schema_version` is
//! missing or is not the one this build writes, and only then
//! deserializes the typed record — so no reader interprets a byte of a
//! file from another schema, and every refusal is one line.

use serde::Deserialize;

/// The `T` that `text` holds, a `kind` file of schema `schema`.
///
/// # Errors
///
/// One line of diagnosis: the text does not parse, its `schema_version`
/// is missing or other than `schema` (`"{kind} schema {found}, this build
/// reads {schema}"`), or it is not a `T`.
pub fn load<T: Deserialize>(text: &str, kind: &str, schema: u64) -> Result<T, String> {
    let value = serde_json::parse(text).map_err(|e| format!("parse: {e}"))?;
    match value.get("schema_version") {
        Some(found) if found.as_u64() == Some(schema) => {}
        Some(found) => return Err(format!("{kind} schema {found}, this build reads {schema}")),
        None => return Err(format!("{kind} schema missing, this build reads {schema}")),
    }
    T::deserialize(&value).map_err(|e| format!("not a {kind} body: {e}"))
}

/// Read the file at `path` and hand its text to `parse`, a typed reader
/// over [`load`]; every diagnosis names the path.
///
/// # Errors
///
/// The file cannot be read, or `parse`'s diagnosis.
pub fn read<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, serde::Deserialize)]
    struct Body {
        schema_version: u64,
        n: u64,
    }

    #[test]
    fn the_schema_is_checked_before_the_body_is_read() {
        let load = |text: &str| load::<Body>(text, "test", 3);
        assert_eq!(load(r#"{"n": 1, "schema_version": 3}"#), Ok(Body { schema_version: 3, n: 1 }));
        for (text, diagnosis) in [
            (r#"{"n": 1, "schema_version": 2}"#, "test schema 2, this build reads 3"),
            (r#"{"n": 1, "schema_version": "3"}"#, "test schema \"3\", this build reads 3"),
            (r#"{"n": 1}"#, "test schema missing, this build reads 3"),
            (r#"{"schema_version": 3}"#, "not a test body: expected u64"),
            ("[1, 2", "parse: "),
        ] {
            let err = load(text).expect_err(text);
            assert!(err.starts_with(diagnosis) && err.lines().count() == 1, "{text}: {err}");
        }
    }
}
