//! Compressed trace serialization (format version 2).
//!
//! A packed reference is 8 bytes, but real traces are highly
//! compressible: instruction fetches advance by 4 bytes, data accesses
//! come in runs at one address, and deltas between successive addresses
//! are tiny. Version 2 encodes each record as a single LEB128 varint
//! holding
//!
//! ```text
//! zigzag(addr − prev_addr) << 2 | kind_tag
//! ```
//!
//! with `prev_addr` tracked per thread. Sequential code and run-heavy
//! data shrink to 1–2 bytes per reference, 4–8× smaller than the packed
//! words.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), placesim_trace::TraceError> {
//! use placesim_trace::{compress, Address, MemRef, ProgramTrace, ThreadTrace};
//!
//! let t: ThreadTrace = (0..100).map(|i| MemRef::instr(Address::new(4 * i))).collect();
//! let prog = ProgramTrace::new("small", vec![t]);
//!
//! let v2 = compress::to_bytes(&prog)?;
//! assert!(v2.len() * 3 < 8 * 100); // sequential code compresses well
//! assert_eq!(compress::from_bytes(&v2)?, prog);
//! # Ok(())
//! # }
//! ```

use crate::record::{Address, MemRef};
use crate::{ProgramTrace, ThreadTrace, TraceError};
use std::io::Write;

/// File magic, shared with v4.
pub const MAGIC: [u8; 4] = *b"PSIM";
/// Version tag of the compressed format.
pub const VERSION: u32 = 2;

/// ZigZag-encodes a signed delta into an unsigned value.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `buf`.
pub(crate) fn get_varint(buf: &mut &[u8]) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first().ok_or_else(|| TraceError::Format {
            reason: "truncated varint".into(),
        })?;
        *buf = rest;
        if shift >= 64 {
            return Err(TraceError::Format {
                reason: "varint exceeds 64 bits".into(),
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Serializes a program trace in the compressed v2 format.
///
/// # Errors
///
/// Returns [`TraceError::Io`] if the sink fails.
pub fn write_program<W: Write>(prog: &ProgramTrace, mut w: W) -> Result<(), TraceError> {
    let mut out = Vec::with_capacity(64 + prog.total_refs() as usize * 2);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let name = prog.name().as_bytes();
    put_varint(&mut out, name.len() as u64);
    out.extend_from_slice(name);
    put_varint(&mut out, prog.thread_count() as u64);

    for (_, thread) in prog.iter() {
        put_varint(&mut out, thread.len() as u64);
        let mut prev: i64 = 0;
        for r in thread.iter() {
            let addr = r.addr.raw() as i64;
            let delta = addr - prev;
            prev = addr;
            put_varint(&mut out, zigzag(delta) << 2 | r.kind.to_tag());
        }
    }
    w.write_all(&out)?;
    w.flush()?;
    Ok(())
}

/// Serializes into an owned buffer.
///
/// # Errors
///
/// See [`write_program`].
pub fn to_bytes(prog: &ProgramTrace) -> Result<Vec<u8>, TraceError> {
    let mut buf = Vec::new();
    write_program(prog, &mut buf)?;
    Ok(buf)
}

/// Deserializes a compressed v2 program trace.
///
/// # Errors
///
/// Returns [`TraceError::Format`] on malformed input,
/// [`TraceError::Version`] on a version mismatch.
pub fn from_bytes(raw: &[u8]) -> Result<ProgramTrace, TraceError> {
    let mut buf = raw;
    if buf.len() < 8 {
        return Err(TraceError::Format {
            reason: "truncated header".into(),
        });
    }
    let (magic, rest) = buf.split_at(4);
    if magic != MAGIC {
        return Err(TraceError::Format {
            reason: format!("bad magic {magic:?}"),
        });
    }
    let (ver, rest) = rest.split_at(4);
    let version = u32::from_le_bytes(ver.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(TraceError::Version {
            found: version,
            supported: VERSION,
        });
    }
    buf = rest;

    let name_len = get_varint(&mut buf)? as usize;
    if buf.len() < name_len {
        return Err(TraceError::Format {
            reason: "truncated name".into(),
        });
    }
    let (name_bytes, rest) = buf.split_at(name_len);
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| TraceError::Format {
            reason: "name is not UTF-8".into(),
        })?
        .to_owned();
    buf = rest;

    let thread_count = get_varint(&mut buf)? as usize;
    // Both counts are attacker-controlled. Bound every pre-allocation by
    // what the remaining input could actually encode — each thread costs
    // at least its length varint, each reference at least one byte — so
    // a hostile header can never reserve more than ~the input size; an
    // honest count above the cap merely grows the vec amortized.
    let mut threads = Vec::with_capacity(thread_count.min(buf.len() / 8));
    for _ in 0..thread_count {
        let len = get_varint(&mut buf)? as usize;
        let mut trace = ThreadTrace::with_capacity(len.min(buf.len() / 8));
        let mut prev: i64 = 0;
        for _ in 0..len {
            let word = get_varint(&mut buf)?;
            let kind = crate::record::RefKind::from_tag(word & 3).expect("2-bit tag");
            let delta = unzigzag(word >> 2);
            let addr = prev.checked_add(delta).ok_or_else(|| TraceError::Format {
                reason: "address delta overflows".into(),
            })?;
            if addr < 0 || addr > Address::MAX.raw() as i64 {
                return Err(TraceError::Format {
                    reason: format!("decoded address {addr} out of range"),
                });
            }
            prev = addr;
            trace.push(MemRef::new(kind, Address::new(addr as u64)));
        }
        threads.push(trace);
    }
    if !buf.is_empty() {
        return Err(TraceError::Format {
            reason: format!("{} trailing bytes", buf.len()),
        });
    }
    Ok(ProgramTrace::new(name, threads))
}

/// Reads a v2 or v4 trace, dispatching on the version field. Any other
/// version, the retired v1 and v3 included, is a [`TraceError::Version`].
///
/// # Errors
///
/// Propagates the underlying decoder's errors.
pub fn read_any(raw: &[u8]) -> Result<ProgramTrace, TraceError> {
    if raw.len() >= 8 && raw[..4] == MAGIC {
        let version = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
        match version {
            2 => return from_bytes(raw),
            4 => return crate::stream::from_bytes(raw),
            other => {
                return Err(TraceError::Version {
                    found: other,
                    supported: crate::stream::VERSION,
                })
            }
        }
    }
    Err(TraceError::Format {
        reason: "not a placesim trace file".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProgramTrace {
        let mut t0 = ThreadTrace::new();
        for i in 0..500u64 {
            t0.push(MemRef::instr(Address::new(4 * i)));
            if i % 3 == 0 {
                t0.push(MemRef::read(Address::new(0x4000_0000 + 32 * (i % 50))));
            }
            if i % 7 == 0 {
                t0.push(MemRef::write(Address::new(0x8000_0000 + 32 * (i % 20))));
            }
        }
        t0.push(MemRef::barrier(0));
        let t1: ThreadTrace = (0..100u64)
            .map(|i| MemRef::read(Address::new(0x4000_0000 + 32 * (i % 5))))
            .collect();
        ProgramTrace::new("compress-me", vec![t0, t1])
    }

    #[test]
    fn roundtrip() {
        let prog = sample();
        let bytes = to_bytes(&prog).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), prog);
    }

    #[test]
    fn compresses_well() {
        let prog = sample();
        let packed = 8 * prog.total_refs() as usize;
        let v2 = to_bytes(&prog).unwrap();
        assert!(
            v2.len() * 2 < packed,
            "v2 {} should be well under half of the {packed} packed bytes",
            v2.len()
        );
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 4, -4, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn rejects_corruption() {
        let bytes = to_bytes(&sample()).unwrap();
        // Truncations at various places must error, never panic.
        for cut in [0, 3, 7, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut noisy = bytes.to_vec();
        noisy.push(0);
        assert!(from_bytes(&noisy).is_err());
        // Wrong version.
        let mut wrong = bytes.to_vec();
        wrong[4] = 7;
        assert!(matches!(
            from_bytes(&wrong),
            Err(TraceError::Version { found: 7, .. })
        ));
    }

    #[test]
    fn read_any_dispatches_v2_and_refuses_v1() {
        let prog = sample();
        let v2 = to_bytes(&prog).unwrap();
        assert_eq!(read_any(&v2).unwrap(), prog);
        assert!(read_any(b"garbage").is_err());
        let mut v1 = v2;
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            read_any(&v1),
            Err(TraceError::Version {
                found: 1,
                supported: 4
            })
        ));
    }

    #[test]
    fn empty_program() {
        let prog = ProgramTrace::new("", vec![]);
        let bytes = to_bytes(&prog).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), prog);
    }

    /// Empty threads at every boundary position, and a named zero-thread
    /// program: v2 writes a zero length varint per empty thread, and the
    /// reader restores the exact thread list — mirrored by the v4
    /// equivalent so both formats agree on these edge shapes.
    #[test]
    fn empty_threads_roundtrip_at_boundaries() {
        let empty = ThreadTrace::new();
        let busy: ThreadTrace = (0..10u64)
            .map(|i| MemRef::read(Address::new(0x100 + 8 * i)))
            .collect();
        for threads in [
            vec![empty.clone()],
            vec![empty.clone(), busy.clone()],
            vec![busy.clone(), empty.clone()],
            vec![empty.clone(), busy.clone(), empty.clone()],
        ] {
            let prog = ProgramTrace::new("holes", threads);
            let bytes = to_bytes(&prog).unwrap();
            assert_eq!(from_bytes(&bytes).unwrap(), prog);
            // read_any takes the same path.
            assert_eq!(read_any(&bytes).unwrap(), prog);
        }
        let named_zero = ProgramTrace::new("nothing", vec![]);
        let bytes = to_bytes(&named_zero).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), named_zero);
    }
}
