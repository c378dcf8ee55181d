//! Wire-size model and wire codec for signature transfers.
//!
//! Section 2.2 of the paper: signatures are ≈2 Kbit in the processor but are
//! compressed to ≈350 bits (≈44 bytes) when communicated. We model the
//! compressed size as a short header plus a per-occupied-bank-0-bit cost,
//! which reproduces the paper's ≈44 B for a typical ~30-line chunk write set
//! and degrades gracefully toward the raw size for saturated signatures.
//!
//! Two layers live here:
//!
//! * [`wire_bytes`] — the analytical *cost model* the traffic accounting
//!   charges per signature hop (hardware-faithful ≈9 bits/entry).
//! * [`encode`] / [`decode`] — a concrete, lossless *codec* for the same
//!   signatures: an 8-byte header plus either a sparse list of set bit
//!   positions or the raw words, whichever is smaller. Geometry travels in
//!   the header, the permutation wiring does not (both endpoints share it,
//!   exactly as the hardware shares its permute networks), so [`decode`]
//!   needs the receiver's [`SignatureConfig`] and rejects a mismatched one.

use crate::bloom::{Signature, SignatureConfig};

/// Header bytes of a compressed signature message payload.
const HEADER_BYTES: u32 = 8;

/// Bits needed per occupied bank-0 position in the run-length-style encoding
/// (position delta plus the corresponding permuted-bank residues).
const BITS_PER_ENTRY: u32 = 9;

/// Codec header mode: payload is `count` little-endian `u16` bit positions.
const MODE_SPARSE: u8 = 0;

/// Codec header mode: payload is the raw backing words, little-endian.
const MODE_RAW: u8 = 1;

/// The number of bytes a signature occupies when transferred on the
/// interconnect.
///
/// An empty signature still costs a header (the message must say it is
/// empty). The size is capped at the raw signature size — compression never
/// loses to sending the raw bits.
///
/// # Example
///
/// ```
/// use bulksc_sig::{wire_bytes, LineAddr, Signature, SignatureConfig};
/// let cfg = SignatureConfig::default();
/// let sig = Signature::from_lines(&cfg, (0..30u64).map(|i| LineAddr(i * 97)));
/// let b = wire_bytes(&sig);
/// // ≈350 bits ≈ 44 bytes for a typical chunk write set (paper §2.2).
/// assert!(b >= 30 && b <= 60, "got {b}");
/// ```
pub fn wire_bytes(sig: &Signature) -> u32 {
    let raw_bytes = sig.config().total_bits() / 8;
    if sig.is_empty() {
        return HEADER_BYTES;
    }
    let entries = sig.bank0_popcount();
    let compressed = HEADER_BYTES + (entries * BITS_PER_ENTRY).div_ceil(8);
    compressed.min(raw_bytes)
}

/// Why a byte string failed to [`decode`] into a signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the header, or a payload shorter than the header
    /// promised.
    Truncated,
    /// The mode byte names no known payload layout.
    UnknownMode(u8),
    /// The header's geometry (banks / bank size / emptiness rule) does not
    /// match the receiver's configuration — distinct wire formats in
    /// hardware.
    GeometryMismatch,
    /// A sparse entry points past the end of the bit array, or bytes trail
    /// the declared payload.
    InvalidPayload,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "signature message truncated"),
            CodecError::UnknownMode(m) => write!(f, "unknown signature wire mode {m}"),
            CodecError::GeometryMismatch => write!(f, "signature geometry mismatch"),
            CodecError::InvalidPayload => write!(f, "invalid signature payload"),
        }
    }
}

/// Serialize a signature for the interconnect, losslessly.
///
/// Layout: `[mode, banks, bank_index_bits, flags, count: u32 LE]` (8 bytes,
/// the same header the [`wire_bytes`] model charges), then either `count`
/// little-endian `u16` set-bit positions (`MODE_SPARSE`) or the raw
/// backing words (`MODE_RAW`) — whichever is smaller, so a sparse chunk
/// write set costs a few dozen bytes while a saturated signature never
/// pays more than header + raw bits.
///
/// # Example
///
/// ```
/// use bulksc_sig::{decode, encode, LineAddr, Signature, SignatureConfig};
/// let cfg = SignatureConfig::default();
/// let sig = Signature::from_lines(&cfg, (0..30u64).map(|i| LineAddr(i * 97)));
/// let wire = encode(&sig);
/// assert_eq!(decode(&cfg, &wire).unwrap(), sig);
/// ```
pub fn encode(sig: &Signature) -> Vec<u8> {
    let cfg = sig.config();
    let positions: Vec<u16> = sig
        .words()
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| {
            (0..64u32)
                .filter(move |b| word >> b & 1 != 0)
                .map(move |b| (w as u32 * 64 + b) as u16)
        })
        .collect();
    let raw_len = (cfg.total_bits() / 8) as usize;
    let sparse = positions.len() * 2 <= raw_len;
    let (mode, count) = if sparse {
        (MODE_SPARSE, positions.len() as u32)
    } else {
        (MODE_RAW, raw_len as u32)
    };
    let mut out = Vec::with_capacity(
        HEADER_BYTES as usize + if sparse { positions.len() * 2 } else { raw_len },
    );
    out.push(mode);
    out.push(cfg.banks as u8);
    out.push(cfg.bank_index_bits as u8);
    out.push(cfg.banked_empty as u8);
    out.extend_from_slice(&count.to_le_bytes());
    if sparse {
        for p in positions {
            out.extend_from_slice(&p.to_le_bytes());
        }
    } else {
        for word in sig.words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    out
}

/// Rebuild a signature from its [`encode`]d wire form.
///
/// `cfg` is the receiver's geometry (including the shared permutation
/// seed); the header must agree with it. Round-trips exactly:
/// `decode(&cfg, &encode(&sig)) == Ok(sig)` for any `sig` built with `cfg`.
pub fn decode(cfg: &SignatureConfig, bytes: &[u8]) -> Result<Signature, CodecError> {
    let header: &[u8; 8] = bytes
        .get(..8)
        .and_then(|h| h.try_into().ok())
        .ok_or(CodecError::Truncated)?;
    let (mode, banks, bank_index_bits, flags) = (header[0], header[1], header[2], header[3]);
    let count = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if u32::from(banks) != cfg.banks
        || u32::from(bank_index_bits) != cfg.bank_index_bits
        || flags != cfg.banked_empty as u8
    {
        return Err(CodecError::GeometryMismatch);
    }
    let payload = &bytes[8..];
    let mut sig = Signature::new(cfg);
    match mode {
        MODE_SPARSE => {
            if payload.len() != count * 2 {
                return Err(if payload.len() < count * 2 {
                    CodecError::Truncated
                } else {
                    CodecError::InvalidPayload
                });
            }
            for entry in payload.chunks_exact(2) {
                let pos = u16::from_le_bytes(entry.try_into().unwrap()) as u32;
                if pos >= cfg.total_bits() {
                    return Err(CodecError::InvalidPayload);
                }
                sig.set_bit(pos as usize);
            }
        }
        MODE_RAW => {
            if count != (cfg.total_bits() / 8) as usize {
                return Err(CodecError::InvalidPayload);
            }
            if payload.len() != count {
                return Err(if payload.len() < count {
                    CodecError::Truncated
                } else {
                    CodecError::InvalidPayload
                });
            }
            for (i, chunk) in payload.chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(chunk.try_into().unwrap());
                for b in 0..64u32 {
                    if word >> b & 1 != 0 {
                        sig.set_bit(i * 64 + b as usize);
                    }
                }
            }
        }
        other => return Err(CodecError::UnknownMode(other)),
    }
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::bloom::SignatureConfig;

    #[test]
    fn empty_signature_is_header_only() {
        let sig = Signature::new(&SignatureConfig::default());
        assert_eq!(wire_bytes(&sig), HEADER_BYTES);
    }

    #[test]
    fn typical_write_set_is_about_44_bytes() {
        let cfg = SignatureConfig::default();
        let sig = Signature::from_lines(&cfg, (0..30u64).map(|i| LineAddr(i * 97)));
        let b = wire_bytes(&sig);
        assert!((30..=60).contains(&b), "expected ≈44 B, got {b}");
    }

    #[test]
    fn saturated_signature_caps_at_raw_size() {
        let cfg = SignatureConfig::default();
        let mut sig = Signature::new(&cfg);
        for i in 0..100_000u64 {
            sig.insert(LineAddr(i));
        }
        assert_eq!(wire_bytes(&sig), cfg.total_bits() / 8);
    }

    #[test]
    fn size_is_monotone_in_set_size() {
        let cfg = SignatureConfig::default();
        let small = Signature::from_lines(&cfg, (0..5u64).map(|i| LineAddr(i * 101)));
        let large = Signature::from_lines(&cfg, (0..200u64).map(|i| LineAddr(i * 101)));
        assert!(wire_bytes(&small) <= wire_bytes(&large));
    }

    #[test]
    fn empty_signature_round_trips_as_header_only() {
        let cfg = SignatureConfig::default();
        let sig = Signature::new(&cfg);
        let wire = encode(&sig);
        assert_eq!(wire.len(), HEADER_BYTES as usize);
        assert_eq!(decode(&cfg, &wire).unwrap(), sig);
    }

    #[test]
    fn sparse_write_set_round_trips_compactly() {
        let cfg = SignatureConfig::default();
        let sig = Signature::from_lines(&cfg, (0..30u64).map(|i| LineAddr(i * 97)));
        let wire = encode(&sig);
        let back = decode(&cfg, &wire).unwrap();
        assert_eq!(back, sig);
        for i in 0..30u64 {
            assert!(back.contains(LineAddr(i * 97)));
        }
        // A ~30-line write set must beat shipping the raw 2 Kbit.
        assert!(
            wire.len() < (cfg.total_bits() / 8) as usize,
            "sparse form ({}) should undercut raw form",
            wire.len()
        );
    }

    #[test]
    fn saturated_signature_round_trips_in_raw_mode() {
        let cfg = SignatureConfig::default();
        let mut sig = Signature::new(&cfg);
        for i in 0..100_000u64 {
            sig.insert(LineAddr(i.wrapping_mul(6_364_136_223_846_793_005) >> 24));
        }
        assert!(sig.popcount() > 2_000, "should be nearly saturated");
        let wire = encode(&sig);
        // Raw mode: never more than header + raw bits, even fully dense.
        assert_eq!(wire.len(), (HEADER_BYTES + cfg.total_bits() / 8) as usize);
        assert_eq!(decode(&cfg, &wire).unwrap(), sig);
    }

    #[test]
    fn round_trip_across_geometries() {
        for bits in [512u32, 1024, 2048, 4096] {
            let cfg = SignatureConfig::with_total_bits(bits);
            let sig = Signature::from_lines(&cfg, (0..50u64).map(|i| LineAddr(i * 131 + 7)));
            assert_eq!(decode(&cfg, &encode(&sig)).unwrap(), sig, "{bits} bits");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let cfg = SignatureConfig::default();
        assert_eq!(decode(&cfg, &[]), Err(CodecError::Truncated));
        assert_eq!(decode(&cfg, &[0u8; 5]), Err(CodecError::Truncated));

        let sig = Signature::from_lines(&cfg, [LineAddr(1), LineAddr(2)]);
        let good = encode(&sig);

        let mut bad_mode = good.clone();
        bad_mode[0] = 7;
        assert_eq!(decode(&cfg, &bad_mode), Err(CodecError::UnknownMode(7)));

        let truncated = &good[..good.len() - 1];
        assert_eq!(decode(&cfg, truncated), Err(CodecError::Truncated));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode(&cfg, &trailing), Err(CodecError::InvalidPayload));

        let mut out_of_range = good;
        let n = out_of_range.len();
        // Overwrite the last sparse entry with a position past the array.
        out_of_range[n - 2..].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(decode(&cfg, &out_of_range), Err(CodecError::InvalidPayload));
    }

    #[test]
    fn decode_rejects_mismatched_geometry() {
        let small = SignatureConfig::with_total_bits(1024);
        let sig = Signature::from_lines(&small, [LineAddr(9)]);
        let wire = encode(&sig);
        assert_eq!(
            decode(&SignatureConfig::default(), &wire),
            Err(CodecError::GeometryMismatch)
        );
        let unbanked = SignatureConfig {
            banked_empty: false,
            ..SignatureConfig::with_total_bits(1024)
        };
        assert_eq!(decode(&unbanked, &wire), Err(CodecError::GeometryMismatch));
    }
}
