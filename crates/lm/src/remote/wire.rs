//! Payload codec of the coordinator/worker protocol (version 3):
//! little-endian integer and f32 fields, the group `GATHER` request and
//! the group `PARTIAL` reply. Every count a peer controls is bounded by
//! the bytes actually present, with checked arithmetic, before anything
//! is sized by it.

use super::{TransportError, KIND_GATHER, PROTOCOL_VERSION};
use fineq_core::frame::{begin_frame, seal_frame, FRAME_HEADER_BYTES};
use fineq_tensor::Matrix;

fn truncated(off: usize) -> TransportError {
    TransportError::Protocol(format!("payload truncated at offset {off}"))
}

pub(super) fn get_u32(payload: &[u8], off: usize) -> Result<u32, TransportError> {
    let bytes = payload.get(off..).and_then(|p| p.get(..4)?.try_into().ok());
    bytes.map(u32::from_le_bytes).ok_or_else(|| truncated(off))
}

pub(super) fn get_u64(payload: &[u8], off: usize) -> Result<u64, TransportError> {
    let bytes = payload.get(off..).and_then(|p| p.get(..8)?.try_into().ok());
    bytes.map(u64::from_le_bytes).ok_or_else(|| truncated(off))
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    // Cannot fire: a local count past u32::MAX overflows the frame cap.
    let v = u32::try_from(v).expect("wire field exceeds u32");
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `values` as f32 LE in one bulk pass. f32 round-trips
/// `to_le_bytes` exactly, so the wire is bit-faithful.
pub(super) fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + values.len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// The `n * width` bytes of `n` fixed-width fields at `off`.
fn field_bytes(
    payload: &[u8],
    off: usize,
    n: usize,
    width: usize,
) -> Result<&[u8], TransportError> {
    let len = n.checked_mul(width);
    len.and_then(|len| payload.get(off..)?.get(..len)).ok_or_else(|| {
        TransportError::Protocol(format!("payload carries fewer than {n} {width}-byte fields"))
    })
}

/// Decodes f32 LE `bytes` into `dst` (equal element counts).
pub(super) fn copy_f32s(bytes: &[u8], dst: &mut [f32]) {
    // Cannot fire: both callers slice `bytes` to `dst`'s length.
    debug_assert_eq!(bytes.len(), dst.len() * 4);
    for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        // Cannot fire: `chunks_exact(4)` yields 4-byte chunks.
        *d = f32::from_le_bytes(c.try_into().expect("4 bytes"));
    }
}

/// The `LOADED` ack: the loaded slice's site id, then the protocol
/// version the worker speaks.
pub(super) fn encode_loaded(sid: u32) -> Vec<u8> {
    let mut ack = sid.to_le_bytes().to_vec();
    ack.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    ack
}

/// Checks a `LOADED` ack against the site just shipped and this build's
/// [`PROTOCOL_VERSION`]. The version field arrived with v3, so an ack
/// too short to hold it is an older worker.
pub(super) fn check_loaded(ack: &[u8], sid: u32) -> Result<(), String> {
    let got = get_u32(ack, 0).map_err(|e| e.to_string())?;
    if got != sid {
        return Err(format!("LOADED names site {got}, expected {sid}"));
    }
    match ack.get(4..6).and_then(|v| v.try_into().ok()).map(u16::from_le_bytes) {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(format!("worker speaks v{v}, coordinator v{PROTOCOL_VERSION}")),
        None => Err(format!(
            "worker speaks a version before v3 (its LOADED carries none), \
             coordinator v{PROTOCOL_VERSION}"
        )),
    }
}

/// Encodes one group `GATHER` as a **sealed frame**: `nonce · n_sites ·
/// site ids · t_len · cols · activations`, written straight behind the
/// reserved frame header and checksummed once. The sealed bytes are what
/// every involved shard is sent and what a failover replays, so a
/// replayed reply carries the original nonce.
pub(super) fn encode_gather(nonce: u64, site_ids: &[u32], a: &Matrix) -> Vec<u8> {
    let payload = 8 + 4 * (3 + site_ids.len()) + 4 * a.as_slice().len();
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload);
    begin_frame(&mut frame);
    frame.extend_from_slice(&nonce.to_le_bytes());
    put_u32(&mut frame, site_ids.len());
    for sid in site_ids {
        frame.extend_from_slice(&sid.to_le_bytes());
    }
    put_u32(&mut frame, a.rows());
    put_u32(&mut frame, a.cols());
    put_f32s(&mut frame, a.as_slice());
    seal_frame(&mut frame, KIND_GATHER);
    frame
}

/// A validated view of one group `GATHER` payload.
pub(super) struct GatherRequest<'a> {
    pub nonce: u64,
    site_ids: &'a [u8],
    pub t_len: usize,
    pub cols: usize,
    /// `t_len * cols` f32 LE, row-major.
    pub activations: &'a [u8],
}

impl<'a> GatherRequest<'a> {
    /// Parses and bounds-checks a `GATHER` payload: at least one site,
    /// a non-empty batch, and exactly the bytes the header declares.
    pub fn parse(payload: &'a [u8]) -> Result<Self, TransportError> {
        let nonce = get_u64(payload, 0)?;
        let n_sites = get_u32(payload, 8)? as usize;
        let site_ids = field_bytes(payload, 12, n_sites, 4)?;
        let shape_off = 12 + site_ids.len();
        let t_len = get_u32(payload, shape_off)? as usize;
        let cols = get_u32(payload, shape_off + 4)? as usize;
        if n_sites == 0 || t_len == 0 || cols == 0 {
            return Err(TransportError::Protocol("empty gather group or batch".into()));
        }
        let n = t_len.checked_mul(cols).ok_or_else(|| {
            TransportError::Protocol(format!("gather shape {t_len}x{cols} overflows"))
        })?;
        let activations = field_bytes(payload, shape_off + 8, n, 4)?;
        if shape_off + 8 + activations.len() != payload.len() {
            return Err(TransportError::Protocol("bytes trail the gather activations".into()));
        }
        Ok(GatherRequest { nonce, site_ids, t_len, cols, activations })
    }

    /// How many sites the request names.
    pub fn n_sites(&self) -> usize {
        self.site_ids.len() / 4
    }

    /// The requested site ids, in request order.
    pub fn site_ids(&self) -> impl Iterator<Item = u32> + '_ {
        // Cannot fire: `chunks_exact(4)` yields 4-byte chunks.
        self.site_ids.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
    }
}

/// Opens a group `PARTIAL` payload in `reply`: `nonce · n_sites · t_len`;
/// one [`put_partial_site`] section per site follows.
pub(super) fn begin_partial(reply: &mut Vec<u8>, nonce: u64, n_sites: usize, t_len: usize) {
    reply.extend_from_slice(&nonce.to_le_bytes());
    put_u32(reply, n_sites);
    put_u32(reply, t_len);
}

/// Appends one site's section: `site id · row_start · rows`, then the
/// `t_len x rows` partial row-major.
pub(super) fn put_partial_site(reply: &mut Vec<u8>, sid: u32, row_start: usize, out: &Matrix) {
    reply.extend_from_slice(&sid.to_le_bytes());
    put_u32(reply, row_start);
    put_u32(reply, out.cols());
    put_f32s(reply, out.as_slice());
}

/// What the coordinator expects of one site's section in a `PARTIAL`:
/// the site, the row range the answering shard owns, and which of the
/// group's outputs it fills.
pub(super) struct SiteWant {
    pub out: usize,
    pub sid: u32,
    pub start: usize,
    pub end: usize,
}

/// Decodes the `PARTIAL` answering the exchange `nonce`: it must carry
/// that nonce and, section by section, exactly the site, row range and
/// batch height `wanted` names, with no byte missing or left over — then
/// each section's rows are copied from the received bytes straight into
/// columns `start..end` of that site's output. Anything else is a
/// protocol violation that kills the connection (the replay rewrites
/// every column a half-decoded reply touched).
pub(super) fn decode_partial(
    payload: &[u8],
    nonce: u64,
    wanted: &[SiteWant],
    outs: &mut [Matrix],
) -> Result<(), TransportError> {
    let got = get_u64(payload, 0)?;
    if got != nonce {
        return Err(TransportError::Protocol(format!("PARTIAL carries unknown nonce {got:#018x}")));
    }
    let t_len = outs[0].rows();
    let (n_sites, got_t) = (get_u32(payload, 8)? as usize, get_u32(payload, 12)? as usize);
    if n_sites != wanted.len() || got_t != t_len {
        return Err(TransportError::Protocol(format!(
            "misrouted partial: {n_sites} sites x{got_t}, expected {} x{t_len}",
            wanted.len()
        )));
    }
    let mut off = 16;
    for w in wanted {
        let got = (get_u32(payload, off)?, get_u32(payload, off + 4)?, get_u32(payload, off + 8)?);
        let rows = w.end - w.start;
        if (got.0, got.1 as usize, got.2 as usize) != (w.sid, w.start, rows) {
            return Err(TransportError::Protocol(format!(
                "misrouted partial: site {} rows {}+{}, expected site {} rows {}..{}",
                got.0, got.1, got.2, w.sid, w.start, w.end
            )));
        }
        let data = field_bytes(payload, off + 12, t_len * rows, 4)?;
        for (t, row) in data.chunks_exact(rows * 4).enumerate() {
            copy_f32s(row, &mut outs[w.out].row_mut(t)[w.start..w.end]);
        }
        off += 12 + data.len();
    }
    if off != payload.len() {
        return Err(TransportError::Protocol("bytes trail the last partial section".into()));
    }
    Ok(())
}
