//! Compact binary encoding of batches.
//!
//! Upstream backup, spooling and checkpointing all serialise batches to
//! bytes; the storage layer charges its cost model per byte written, so this
//! codec determines the byte volumes the experiments in Fig. 9 depend on.
//! The header is a simple length-prefixed layout; the per-column payloads
//! are shared with the [`wire`](crate::wire) format, so durable backups ship
//! encoded columns natively (dictionary, bit-packed, XOR) with no
//! decode/re-encode at the boundary. The encoding round-trips exactly and is
//! stable across runs (important because a replayed partition must be
//! byte-identical to the original).

use crate::batch::Batch;
use crate::datatype::DataType;
use crate::schema::{Field, Schema};
use crate::wire::{
    decode_column_payload, encode_column_payload, put_u16, put_u32, put_u64, put_u8, WireReader,
};
/// The payload type of encoded partitions, re-exported so catalogs can hold
/// split objects without depending on the byte-buffer crate themselves.
pub use bytes::Bytes;
use quokka_common::{QuokkaError, Result};

const MAGIC: u32 = 0x514B_4241; // "QKBA"

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn tag_dtype(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        4 => DataType::Date,
        other => return Err(QuokkaError::Storage(format!("bad data type tag {other}"))),
    })
}

/// Encode a batch to bytes.
pub fn encode_batch(batch: &Batch) -> Bytes {
    let mut buf = Vec::with_capacity(batch.byte_size() + 64);
    put_u32(&mut buf, MAGIC);
    put_u32(&mut buf, batch.num_columns() as u32);
    put_u64(&mut buf, batch.num_rows() as u64);
    for field in batch.schema().fields() {
        put_u8(&mut buf, dtype_tag(field.data_type));
        let name = field.name.as_bytes();
        put_u16(&mut buf, name.len() as u16);
        buf.extend_from_slice(name);
    }
    for col in batch.columns() {
        encode_column_payload(col, &mut buf);
    }
    Bytes::from(buf)
}

/// Decode a batch previously produced by [`encode_batch`].
pub fn decode_batch(data: &[u8]) -> Result<Batch> {
    let mut r = WireReader::new(data);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(QuokkaError::Storage(format!("bad batch magic {magic:#x}")));
    }
    let cols = r.u32()? as usize;
    let rows_raw = r.u64()?;
    let rows = usize::try_from(rows_raw)
        .map_err(|_| QuokkaError::Storage(format!("absurd row count {rows_raw}")))?;
    if cols > r.remaining()
        || (rows > r.remaining().max(1) * 8 && rows > crate::wire::MAX_SMALL_FRAME_ROWS)
    {
        return Err(QuokkaError::Storage(format!(
            "batch header claims {cols} cols x {rows} rows but only {} bytes follow",
            r.remaining()
        )));
    }
    let mut fields = Vec::with_capacity(cols);
    for _ in 0..cols {
        let dt = tag_dtype(r.u8()?)?;
        let name_len = r.u16()? as usize;
        let raw = r.take(name_len, "column name")?;
        let name = String::from_utf8(raw.to_vec())
            .map_err(|e| QuokkaError::Storage(format!("invalid column name: {e}")))?;
        fields.push(Field::new(name, dt));
    }
    let schema = Schema::new(fields);
    let mut columns = Vec::with_capacity(cols);
    for field in schema.fields() {
        columns.push(decode_column_payload(&mut r, field.data_type, rows)?);
    }
    Batch::try_new(schema, columns)
}

/// Encode several batches (one data partition) into a single payload.
pub fn encode_partition(batches: &[Batch]) -> Bytes {
    let mut buf = Vec::new();
    put_u32(&mut buf, batches.len() as u32);
    for b in batches {
        let encoded = encode_batch(b);
        put_u32(&mut buf, encoded.len() as u32);
        buf.extend_from_slice(&encoded);
    }
    Bytes::from(buf)
}

/// Decode a payload produced by [`encode_partition`].
pub fn decode_partition(data: &[u8]) -> Result<Vec<Batch>> {
    let mut r = WireReader::new(data);
    let count = r.u32()? as usize;
    if count > r.remaining().max(1) {
        return Err(QuokkaError::Storage(format!(
            "partition claims {count} batches but only {} bytes follow",
            r.remaining()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let payload = r.bytes()?;
        out.push(decode_batch(payload)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::ScalarValue;

    fn sample() -> Batch {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("price", DataType::Float64),
            ("flag", DataType::Bool),
            ("ship", DataType::Date),
            ("comment", DataType::Utf8),
        ]);
        Batch::try_new(
            schema,
            vec![
                Column::Int64(vec![1, -5, 300]),
                Column::Float64(vec![0.5, 2.25, -9.0]),
                Column::Bool(vec![true, false, true]),
                Column::Date(vec![100, 0, -30]),
                Column::Utf8(vec!["hello".into(), "".into(), "unicode ✓".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_batch() {
        let b = sample();
        let encoded = encode_batch(&b);
        let decoded = decode_batch(&encoded).unwrap();
        assert_eq!(b, decoded);
        assert_eq!(decoded.value(2, 4), ScalarValue::Utf8("unicode ✓".into()));
    }

    #[test]
    fn roundtrip_empty_batch() {
        let b = Batch::empty(sample().schema().clone());
        let decoded = decode_batch(&encode_batch(&b)).unwrap();
        assert_eq!(decoded.num_rows(), 0);
        assert_eq!(decoded.schema(), b.schema());
    }

    #[test]
    fn roundtrip_partition() {
        let b = sample();
        let payload = encode_partition(&[b.clone(), b.slice(0, 1)]);
        let decoded = decode_partition(&payload).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], b);
        assert_eq!(decoded[1].num_rows(), 1);
    }

    #[test]
    fn roundtrip_encoded_columns() {
        let b = sample();
        let encoded_batch_cols = Batch::try_new(
            b.schema().clone(),
            b.columns().iter().map(Column::encode_auto).collect(),
        )
        .unwrap();
        let payload = encode_partition(std::slice::from_ref(&encoded_batch_cols));
        let decoded = decode_partition(&payload).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0], b, "backup round-trip preserves logical content");
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let b = sample();
        let encoded = encode_batch(&b);
        assert!(decode_batch(&encoded[..10]).is_err());
        let mut tampered = encoded.to_vec();
        tampered[0] ^= 0xFF;
        assert!(decode_batch(&tampered).is_err());
        assert!(decode_partition(&[1, 2]).is_err());
        assert!(decode_batch(&[]).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let b = sample();
        assert_eq!(encode_batch(&b), encode_batch(&b));
        assert_eq!(encode_partition(std::slice::from_ref(&b)), encode_partition(&[b]));
    }
}
