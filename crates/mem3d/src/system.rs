//! The complete memory device: all vaults behind one façade.

use crate::{
    AddressMap, AddressMapKind, BandwidthReport, Error, Geometry, Location, Picos, Request,
    RequestOutcome, Result, RunPacing, RunServed, Stats, TimingParams, TraceOp, TraceRun,
    VaultController,
};

/// Femtoseconds per picosecond (the driver's kernel clock runs in
/// integer femtoseconds; see `fft2d::run_phase`).
const FS_PER_PS: u128 = 1_000;

/// Which request-servicing implementation the system uses.
///
/// [`Fast`](ServicePath::Fast) is the default: cached shift/mask address
/// maps, decode-once burst walks and fused span servicing.
/// [`Reference`](ServicePath::Reference) is the original scalar path —
/// the map is rebuilt per call and every row fragment is decoded with
/// the div/mod chain — kept as the golden reference the differential
/// property tests compare against. Both paths are bit-identical in
/// every observable (outcomes, statistics, controller state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServicePath {
    /// Cached maps + decode-once bursts (the default).
    #[default]
    Fast,
    /// Per-call map construction + per-fragment div/mod decode.
    Reference,
}

/// The complete 3D memory device: one [`VaultController`] per vault, all
/// sharing a [`Geometry`] and [`TimingParams`].
///
/// Vaults are fully independent; the system routes each request to its
/// vault's controller and aggregates statistics. Requests that cross a
/// row boundary are split transparently.
///
/// One [`AddressMap`] per [`AddressMapKind`] is built at construction
/// and cached, so the request hot path never rebuilds a decoder.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    geom: Geometry,
    timing: TimingParams,
    controllers: Vec<VaultController>,
    /// One cached map per [`AddressMapKind`], indexed by `kind.index()`.
    maps: [AddressMap; 3],
    /// Cached `geom.capacity_bytes()` for per-burst bounds checks.
    capacity: u64,
    path: ServicePath,
}

impl MemorySystem {
    /// Builds an idle device.
    ///
    /// # Panics
    ///
    /// Panics if `geom` or `timing` fail validation; use
    /// [`MemorySystem::try_new`] for fallible construction.
    pub fn new(geom: Geometry, timing: TimingParams) -> Self {
        // simlint::allow(P001): documented constructor panic on invalid
        // config; `try_new` is the fallible path and nothing on the
        // request service path calls `new`.
        Self::try_new(geom, timing).expect("invalid memory configuration")
    }

    /// Fallible counterpart of [`MemorySystem::new`].
    ///
    /// # Errors
    ///
    /// Returns the first geometry or timing validation error.
    pub fn try_new(geom: Geometry, timing: TimingParams) -> Result<Self> {
        geom.validate()?;
        timing.validate()?;
        let controllers = (0..geom.vaults)
            .map(|v| VaultController::new(v, geom, timing))
            .collect(); // simlint::allow(H001): system construction — one controller table per device, never per request
        Ok(MemorySystem {
            geom,
            timing,
            controllers,
            maps: AddressMapKind::ALL.map(|k| AddressMap::new(k, geom)),
            capacity: geom.capacity_bytes(),
            path: ServicePath::Fast,
        })
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The cached address map for `kind`.
    pub fn address_map(&self, kind: AddressMapKind) -> &AddressMap {
        &self.maps[kind.index()]
    }

    /// The active request-servicing implementation.
    pub fn service_path(&self) -> ServicePath {
        self.path
    }

    /// Selects the request-servicing implementation. Both paths are
    /// bit-identical in every observable; [`ServicePath::Reference`]
    /// exists for differential testing and before/after benchmarking.
    pub fn set_service_path(&mut self, path: ServicePath) {
        self.path = path;
    }

    /// Device peak bandwidth in GB/s (`vaults × per-vault TSV rate`).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.geom.vaults as f64 * self.timing.vault_peak_gbps()
    }

    /// Access to one vault's controller (e.g. to inspect bank state).
    ///
    /// # Panics
    ///
    /// Panics if `vault` is out of range.
    pub fn controller(&self, vault: usize) -> &VaultController {
        &self.controllers[vault]
    }

    /// The vault that would serve a burst starting at flat address
    /// `addr` under `map_kind` — the routing hook the tenancy service
    /// uses to group contending request streams by vault controller
    /// before a beat is actually submitted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] when `addr` is outside the device.
    pub fn vault_of(&self, map_kind: AddressMapKind, addr: u64) -> Result<usize> {
        Ok(self.maps[map_kind.index()].decode(addr)?.vault)
    }

    /// Chunked-map linearization of a location, used for error reporting
    /// on the location-addressed API.
    fn chunked_flat(g: &Geometry, loc: Location) -> u64 {
        (((loc.vault as u64 * g.layers as u64 + loc.layer as u64) * g.banks_per_layer as u64
            + loc.bank as u64)
            * g.rows_per_bank as u64
            + loc.row as u64)
            * g.row_bytes as u64
            + loc.col as u64
    }

    /// Serves one request, splitting it at row boundaries if needed.
    /// The continuation row is the *next row of the same bank*, so the
    /// request must fit within its bank.
    ///
    /// Returns the outcome of the final fragment; `data_start` is taken
    /// from the first fragment so latency measurements span the whole
    /// request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if the request's location is outside
    /// the geometry or the request runs past the last row of its bank
    /// (the reported address is the location's chunked-map
    /// linearization), and [`Error::BadRequest`] if its length is zero.
    // simlint::entry(service_path)
    // simlint::entry(hot_path)
    pub fn service(&mut self, req: Request) -> Result<RequestOutcome> {
        if !self.geom.contains(req.loc) {
            return Err(Error::OutOfRange {
                addr: Self::chunked_flat(&self.geom, req.loc),
                capacity: self.capacity,
            });
        }
        if req.bytes == 0 {
            return Err(Error::BadRequest("zero-length request".into()));
        }
        let row_bytes = self.geom.row_bytes;
        // Reject requests running past the bank's last row up front
        // (rather than wrapping silently to row 0), so a rejected
        // request leaves no trace in the statistics.
        let bank_avail =
            (self.geom.rows_per_bank - req.loc.row) as u64 * row_bytes as u64 - req.loc.col as u64;
        if req.bytes as u64 > bank_avail {
            return Err(Error::OutOfRange {
                addr: Self::chunked_flat(&self.geom, req.loc) + req.bytes as u64 - 1,
                capacity: self.capacity,
            });
        }
        let mut remaining = req.bytes as usize;
        let mut loc = req.loc;
        // The first fragment is served eagerly (`bytes > 0` was checked
        // above), so the request-wide `data_start` is captured directly
        // instead of through an Option.
        let take = remaining.min(row_bytes - loc.col as usize);
        let mut out = self.controllers[loc.vault].service(Request {
            loc,
            bytes: take as u32,
            ..req
        });
        let data_start = out.data_start;
        remaining -= take;
        while remaining > 0 {
            // Continue in the next row of the same bank (the controller
            // treats this as a row conflict, as real hardware would).
            loc = Location {
                row: loc.row + 1,
                col: 0,
                ..loc
            };
            let take = remaining.min(row_bytes);
            out = self.controllers[loc.vault].service(Request {
                loc,
                bytes: take as u32,
                ..req
            });
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// Serves one coalesced burst arriving at `at`, addressed by flat
    /// byte address through `map_kind`.
    ///
    /// On the [`Fast`](ServicePath::Fast) path the burst's start
    /// location is decoded **once** against the cached map; row
    /// fragments past the first advance with incremental location
    /// arithmetic ([`AddressMap::next_row_location`]) instead of
    /// re-decoding. The [`Reference`](ServicePath::Reference) path
    /// rebuilds the map and decodes every fragment, as the original
    /// implementation did. Both are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] when the address (plus length) falls
    /// outside the device and [`Error::BadRequest`] for empty bursts.
    pub fn service_burst(
        &mut self,
        map_kind: AddressMapKind,
        op: TraceOp,
        at: Picos,
    ) -> Result<RequestOutcome> {
        match self.path {
            ServicePath::Fast => self.service_burst_fast(map_kind, op, at),
            ServicePath::Reference => self.service_burst_reference(map_kind, op, at),
        }
    }

    fn service_burst_fast(
        &mut self,
        map_kind: AddressMapKind,
        op: TraceOp,
        at: Picos,
    ) -> Result<RequestOutcome> {
        if op.bytes == 0 {
            return Err(Error::BadRequest("zero-length request".into()));
        }
        let end = op.addr + op.bytes as u64 - 1;
        if end >= self.capacity {
            return Err(Error::OutOfRange {
                addr: end,
                capacity: self.capacity,
            });
        }
        let loc = self.maps[map_kind.index()].decode(op.addr)?;
        let row_bytes = self.geom.row_bytes;
        let in_row = row_bytes - loc.col as usize;
        if op.bytes as usize <= in_row {
            // Hot single-fragment case: one decode, one controller call.
            return Ok(self.controllers[loc.vault].service(Request {
                loc,
                bytes: op.bytes,
                dir: op.dir,
                at,
            }));
        }
        // Multi-fragment walk: decode once, then advance rows with
        // carry arithmetic in the map's interleaving order. The first
        // fragment is served eagerly so `data_start` needs no Option.
        let map = self.maps[map_kind.index()];
        let mut remaining = op.bytes as usize;
        let mut loc = loc;
        let mut out = self.controllers[loc.vault].service(Request {
            loc,
            bytes: in_row as u32,
            dir: op.dir,
            at,
        });
        let data_start = out.data_start;
        remaining -= in_row;
        while remaining > 0 {
            // simlint::allow(P001): `end < capacity` was verified at
            // entry, so every continuation row of an in-bounds burst
            // exists — the map can always advance here.
            loc = map.next_row_location(loc).expect("in-bounds burst");
            let take = remaining.min(row_bytes);
            out = self.controllers[loc.vault].service(Request {
                loc,
                bytes: take as u32,
                dir: op.dir,
                at,
            });
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// The original scalar implementation of
    /// [`service_burst`](Self::service_burst), kept verbatim as the golden
    /// reference: the address map is rebuilt on every call and every row
    /// fragment is decoded with the div/mod chain.
    fn service_burst_reference(
        &mut self,
        map_kind: AddressMapKind,
        op: TraceOp,
        at: Picos,
    ) -> Result<RequestOutcome> {
        let TraceOp { addr, bytes, dir } = op;
        if bytes == 0 {
            return Err(Error::BadRequest("zero-length request".into()));
        }
        let map = AddressMap::reference(map_kind, self.geom);
        let end = addr + bytes as u64 - 1;
        if end >= self.geom.capacity_bytes() {
            return Err(Error::OutOfRange {
                addr: end,
                capacity: self.geom.capacity_bytes(),
            });
        }
        // Split at row boundaries so each fragment decodes contiguously.
        // The first fragment is served eagerly (`bytes > 0` was checked
        // above), capturing the request-wide `data_start` directly.
        let row_bytes = self.geom.row_bytes as u64;
        let mut cur = addr;
        let mut remaining = bytes as u64;
        let take = remaining.min(row_bytes - cur % row_bytes);
        let loc = map.decode_reference(cur)?;
        let mut out = self.controllers[loc.vault].service(Request {
            loc,
            bytes: take as u32,
            dir,
            at,
        });
        let data_start = out.data_start;
        cur += take;
        remaining -= take;
        while remaining > 0 {
            let in_row = row_bytes - cur % row_bytes;
            let take = remaining.min(in_row);
            let loc = map.decode_reference(cur)?;
            out = self.controllers[loc.vault].service(Request {
                loc,
                bytes: take as u32,
                dir,
                at,
            });
            cur += take;
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// Serves a whole pulled run under the driver's pacing law — the
    /// one servicing primitive of the phase driver (`fft2d::run_phase`)
    /// and open-loop [`replay_stream`](crate::replay_stream).
    ///
    /// Beat *i* accesses `run.op.addr + i·stride` and arrives at
    /// `max(floor, (t − window_fs) / 1000 ps)`; after it completes the
    /// kernel clock becomes `t = max(t, done·1000) + op_fs` (see
    /// [`RunPacing`]). On the [`Fast`](ServicePath::Fast) path with
    /// refresh off, every stretch that
    /// [`AddressMap::stride_run_location`] proves is a same-bank
    /// ascending-row sweep of at least two beats (the baseline's strided
    /// column walk) resolves in the controller's closed-form fused loop;
    /// a one-beat stretch is served as one paced beat and the remainder
    /// is classified again. Every other beat — cross-bank strides, beats
    /// that cross a row, refresh windows, the
    /// [`Reference`](ServicePath::Reference) path — goes through one
    /// per-beat loop over [`service_burst`](Self::service_burst).
    ///
    /// Bit-identical on both paths, in the returned clock and completion
    /// times, the statistics and the controller state; the differential
    /// suite (`tests/hotpath_equivalence.rs`) proves it.
    ///
    /// # Errors
    ///
    /// Returns the first failing beat's error ([`Error::OutOfRange`],
    /// [`Error::BadRequest`]). The beats before it stay served and the
    /// failing beat leaves no trace, identically on both paths.
    pub fn service_span(
        &mut self,
        map_kind: AddressMapKind,
        run: TraceRun,
        pacing: &RunPacing,
    ) -> Result<RunServed> {
        let TraceRun {
            mut op,
            beats,
            stride,
        } = run;
        let beats = beats as u64;
        let row_bytes = self.geom.row_bytes as u64;
        // The closed form never splits a beat into fragments; with a
        // row-aligned stride a beat fits its row iff the first one does.
        let mut fuse = self.path == ServicePath::Fast
            && !self.timing.refresh_enabled()
            && op.bytes > 0
            && op.addr % row_bytes + op.bytes as u64 <= row_bytes;
        let mut t_fs = pacing.t_kernel_fs;
        // Beats on different vaults need not complete in order; the
        // driver observes the run's *latest* completion.
        let mut last_done = Picos::ZERO;
        let mut probe_done = None;
        let mut i = 0;
        while i < beats {
            if fuse && beats - i >= 2 {
                // `beats - i` came from a u32, so the cast is lossless.
                match self.maps[map_kind.index()].stride_run_location(
                    op.addr,
                    stride,
                    (beats - i) as u32,
                ) {
                    Some((loc, row_step, fit)) if fit >= 2 => {
                        let served = self.controllers[loc.vault].service_paced_run(
                            loc,
                            op.bytes,
                            op.dir,
                            row_step,
                            fit,
                            &RunPacing {
                                t_kernel_fs: t_fs,
                                probe_beat: pacing.probe_beat.and_then(|p| p.checked_sub(i)),
                                ..*pacing
                            },
                        );
                        t_fs = served.t_kernel_fs;
                        last_done = last_done.max(served.last_done);
                        probe_done = probe_done.or(served.probe_done);
                        i += fit as u64;
                        op.addr += fit as u64 * stride;
                        continue;
                    }
                    // One beat left in this bank stretch: pace it below,
                    // then the next stretch is classified again.
                    Some(_) => {}
                    // Stride and shape never change along a run, so a
                    // run that cannot fuse here never will.
                    None => fuse = false,
                }
            }
            let at = Picos::from_fs_clock(t_fs.saturating_sub(pacing.window_fs)).max(pacing.floor);
            let done = self.service_burst(map_kind, op, at)?.done;
            t_fs = t_fs.max(done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
            last_done = last_done.max(done);
            if pacing.probe_beat == Some(i) {
                probe_done = Some(done);
            }
            i += 1;
            op.addr += stride;
        }
        Ok(RunServed {
            t_kernel_fs: t_fs,
            last_done,
            probe_done,
        })
    }

    /// Aggregated statistics across all vaults.
    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        for c in &self.controllers {
            total.merge(c.stats());
        }
        total
    }

    /// Achieved bandwidth vs device peak for the current statistics.
    pub fn bandwidth_report(&self) -> BandwidthReport {
        BandwidthReport {
            achieved_gbps: self.stats().bandwidth_gbps(),
            peak_gbps: self.peak_bandwidth_gbps(),
        }
    }

    /// Clears statistics on every controller, keeping row-buffer state.
    pub fn reset_stats(&mut self) {
        for c in &mut self.controllers {
            c.reset_stats();
        }
    }

    /// Returns the device to its power-on state.
    pub fn reset(&mut self) {
        for c in &mut self.controllers {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, Location};

    fn sys() -> MemorySystem {
        MemorySystem::new(Geometry::default(), TimingParams::default())
    }

    fn read_run(addr: u64, bytes: u32, beats: u32, stride: u64) -> TraceRun {
        TraceRun {
            op: TraceOp {
                addr,
                bytes,
                dir: Direction::Read,
            },
            beats,
            stride,
        }
    }

    /// The pacing law applied beat by beat through `service_burst` — the
    /// scalar oracle `service_span` must reproduce exactly.
    fn paced_beat_loop(
        m: &mut MemorySystem,
        kind: AddressMapKind,
        run: TraceRun,
        pacing: &RunPacing,
    ) -> Result<RunServed> {
        let mut t_fs = pacing.t_kernel_fs;
        let mut last_done = Picos::ZERO;
        let mut probe_done = None;
        let mut op = run.op;
        for i in 0..run.beats as u64 {
            let at = Picos::from_fs_clock(t_fs.saturating_sub(pacing.window_fs)).max(pacing.floor);
            let done = m.service_burst(kind, op, at)?.done;
            t_fs = t_fs.max(done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
            last_done = last_done.max(done);
            if pacing.probe_beat == Some(i) {
                probe_done = Some(done);
            }
            op.addr += run.stride;
        }
        Ok(RunServed {
            t_kernel_fs: t_fs,
            last_done,
            probe_done,
        })
    }

    #[test]
    fn service_span_matches_the_paced_beat_loop() {
        // Every run shape — the fused same-bank stretches, the one-beat
        // stretch at a bank's last row, cross-bank and non-row strides,
        // row-crossing beats and the error cases — must equal the scalar
        // loop on a Reference twin: in the served clock and completion
        // times, the statistics and the returned error, on both service
        // paths, with refresh off and on, under kernel pacing and
        // open-loop replay.
        let geom = Geometry::default();
        let row = geom.row_bytes as u64;
        let cap = geom.capacity_bytes();
        let last_row = (geom.rows_per_bank as u64 - 1) * row;
        let shapes = [
            read_run(0, 0, 8, row),                      // zero-byte beats
            read_run(3 * row, 8, 1, 0),                  // one beat
            read_run(row - 4, 8, 8, row),                // beats cross a row
            read_run(0, 8, 8, row + 8),                  // non-row stride
            read_run(0, 8, 64, row),                     // same-bank stretch
            read_run(last_row, 8, 8, row),               // last row of a bank
            read_run(cap - 3 * row, 8, 8, row),          // off the device end
            read_run(3 * row, row as u32, 64, 16 * row), // cross-bank whole rows
        ];
        let paced = RunPacing {
            t_kernel_fs: 5_000_000,
            window_fs: 2_000_000,
            op_fs: 31_250 * 8,
            // Above the first arrivals' window edge, so the floor binds.
            floor: Picos(4_000),
            probe_beat: Some(3),
        };
        for timing in [
            TimingParams::default(),
            TimingParams::default().with_refresh(),
        ] {
            for path in [ServicePath::Fast, ServicePath::Reference] {
                for pacing in [paced, crate::trace::OPEN_LOOP] {
                    for kind in AddressMapKind::ALL {
                        for run in shapes {
                            let mut span = MemorySystem::new(geom, timing);
                            span.set_service_path(path);
                            let mut oracle = MemorySystem::new(geom, timing);
                            oracle.set_service_path(ServicePath::Reference);
                            let got = span.service_span(kind, run, &pacing);
                            let want = paced_beat_loop(&mut oracle, kind, run, &pacing);
                            let case = format!("{path:?} {kind:?} {run:?} {pacing:?}");
                            assert_eq!(got, want, "{case}");
                            assert_eq!(span.stats(), oracle.stats(), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn peak_bandwidth_is_vault_sum() {
        let m = sys();
        assert!((m.peak_bandwidth_gbps() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let bad_geom = Geometry {
            vaults: 0,
            ..Geometry::default()
        };
        assert!(MemorySystem::try_new(bad_geom, TimingParams::default()).is_err());
        let bad_timing = TimingParams {
            tsv_ps_per_byte: Picos::ZERO,
            ..TimingParams::default()
        };
        assert!(MemorySystem::try_new(Geometry::default(), bad_timing).is_err());
    }

    #[test]
    fn vault_accesses_run_in_parallel() {
        let mut m = sys();
        // Row misses in 16 different vaults: all finish at the same time
        // because vaults are independent.
        let mut dones = Vec::new();
        for v in 0..16 {
            let loc = Location {
                vault: v,
                ..Location::ZERO
            };
            dones.push(m.service(Request::read(loc, 8)).unwrap().done);
        }
        assert!(dones.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn same_vault_accesses_serialize_on_tsvs() {
        let mut m = sys();
        let a = m.service(Request::read(Location::ZERO, 512)).unwrap();
        let b = m
            .service(Request::read(
                Location {
                    col: 512,
                    ..Location::ZERO
                },
                512,
            ))
            .unwrap();
        assert!(b.done > a.done);
    }

    #[test]
    fn row_boundary_split_touches_next_row() {
        let mut m = sys();
        let row_bytes = m.geometry().row_bytes;
        let loc = Location {
            col: (row_bytes - 8) as u32,
            ..Location::ZERO
        };
        let out = m.service(Request::read(loc, 16)).unwrap();
        // The split forced a second activate in row 1.
        assert_eq!(m.stats().activations, 2);
        assert!(out.done > Picos::ZERO);
        assert_eq!(m.stats().bytes_read, 16);
    }

    #[test]
    fn service_past_last_row_of_bank_is_rejected() {
        // Regression: this used to wrap silently to row 0 of the same
        // bank via `%` and keep going.
        let mut m = sys();
        let g = *m.geometry();
        let loc = Location {
            row: g.rows_per_bank - 1,
            col: (g.row_bytes - 8) as u32,
            ..Location::ZERO
        };
        let r = m.service(Request::read(loc, 16));
        assert!(matches!(r, Err(Error::OutOfRange { .. })), "{r:?}");
        // Rejected up front: no fragment was serviced.
        assert_eq!(m.stats().requests, 0);
        // The last in-bank bytes are still reachable.
        assert!(m.service(Request::read(loc, 8)).is_ok());
    }

    fn op(addr: u64, bytes: u32, dir: Direction) -> TraceOp {
        TraceOp { addr, bytes, dir }
    }

    #[test]
    fn service_burst_round_trips_stats() {
        let mut m = sys();
        let out = m
            .service_burst(
                AddressMapKind::VaultInterleaved,
                op(0, 64, Direction::Write),
                Picos::ZERO,
            )
            .unwrap();
        assert!(out.done > Picos::ZERO);
        assert_eq!(m.stats().bytes_written, 64);
    }

    #[test]
    fn service_burst_rejects_overflow() {
        let mut m = sys();
        let cap = m.geometry().capacity_bytes();
        for path in [ServicePath::Fast, ServicePath::Reference] {
            m.set_service_path(path);
            for bad in [op(cap - 4, 8, Direction::Read), op(0, 0, Direction::Read)] {
                assert!(m
                    .service_burst(AddressMapKind::Chunked, bad, Picos::ZERO)
                    .is_err());
            }
        }
        assert_eq!(m.stats().requests, 0);
    }

    #[test]
    fn fast_and_reference_paths_agree_on_bursts() {
        // Per-outcome equality, including multi-fragment bursts that
        // cross several rows (and, under non-Chunked maps, vaults).
        for kind in AddressMapKind::ALL {
            let mut fast = sys();
            let mut reference = sys();
            reference.set_service_path(ServicePath::Reference);
            assert_eq!(fast.service_path(), ServicePath::Fast);
            let row = Geometry::default().row_bytes as u64;
            let cases = [
                (0u64, 8u32),
                (row - 8, 16),                 // crosses one row boundary
                (3 * row - 4, 3 * row as u32), // spans four rows
                (row / 2, row as u32 * 2),
            ];
            for (i, (addr, bytes)) in cases.into_iter().enumerate() {
                let dir = if i % 2 == 0 {
                    Direction::Read
                } else {
                    Direction::Write
                };
                let at = Picos(i as u64 * 1000);
                let a = fast.service_burst(kind, op(addr, bytes, dir), at).unwrap();
                let b = reference
                    .service_burst(kind, op(addr, bytes, dir), at)
                    .unwrap();
                assert_eq!(a, b, "{kind:?} burst at {addr}+{bytes}");
            }
            assert_eq!(fast.stats(), reference.stats(), "{kind:?} stats");
        }
    }

    #[test]
    fn sequential_stream_beats_strided_stream() {
        // The fundamental effect the paper exploits: unit-stride access is
        // far faster than N-strided access under the Chunked map.
        let mut m = sys();
        let n = 1024u64;
        let mut bandwidth = |stride: u64| {
            m.reset();
            for i in 0..n {
                m.service_burst(
                    AddressMapKind::Chunked,
                    op(i * stride, 8, Direction::Read),
                    Picos::ZERO,
                )
                .unwrap();
            }
            m.stats().bandwidth_gbps()
        };
        let seq = bandwidth(8);
        let strided = bandwidth(1024 * 8);
        assert!(
            seq > strided * 10.0,
            "sequential {seq} GB/s should dwarf strided {strided} GB/s"
        );
    }

    #[test]
    fn service_rejects_foreign_location_and_zero_length() {
        let mut m = sys();
        let foreign = m.service(Request::read(
            Location {
                vault: 99,
                ..Location::ZERO
            },
            8,
        ));
        assert!(
            matches!(foreign, Err(Error::OutOfRange { .. })),
            "{foreign:?}"
        );
        let empty = m.service(Request::read(Location::ZERO, 0));
        assert!(matches!(empty, Err(Error::BadRequest(_))), "{empty:?}");
        // Rejected requests leave no trace in the statistics.
        assert_eq!(m.stats().requests, 0);
    }
}
