//! JSON in and out through the repository's vendored `serde_json`, using
//! its value tree directly.

pub use serde::Value as Json;

/// Adapter that lets a bare value tree pass through `serde_json`.
struct Raw(Json);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Json {
        self.0.clone()
    }
}

impl serde::Deserialize for Raw {
    fn from_value(v: &Json) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

/// An object with `fields` in the given order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Compact JSON text. Fails on a non-finite number.
pub fn to_string(v: &Json) -> Result<String, String> {
    serde_json::to_string(&Raw(v.clone())).map_err(|e| e.to_string())
}

/// Parse JSON text into a value tree.
#[cfg(test)]
pub fn parse(text: &str) -> Result<Json, String> {
    serde_json::from_str::<Raw>(text)
        .map(|r| r.0)
        .map_err(|e| e.to_string())
}
