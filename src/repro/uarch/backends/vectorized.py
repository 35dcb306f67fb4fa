"""The ``"vectorized"`` kernel backend: numpy structure-of-arrays replay.

The scalar :class:`~repro.uarch.backends.reference.Cache` spends its
time in per-access Python bytecode.  This backend keeps the *scalar*
state representation (so every per-access operation — ``access``,
``probe``, the whole mechanism interface — inherits the reference
implementation unchanged and is bit-exact by construction) and
accelerates only the batched :meth:`Cache.replay` path:

1. **Materialise** the nested per-set lists into structure-of-arrays
   numpy state: ``tags[S, W]`` (int64, ``-1`` for empty),
   ``state[S, W]`` (0 = INVALID, 1 = VALID, 2 = INVERTED),
   ``pos[S, W]`` (LRU-stack position per way) and ``shadow[S, W]``.
2. **Decode** the address stream in bounded chunks
   (``line = addr // line_bytes``, ``set = line % S``,
   ``tag = line // S``) and group it by set with one stable argsort.
3. **Time-slice**: iterate ``k = 0, 1, ...`` processing the k-th
   access of *every* active set in one array step — hit detect,
   LRU touch, victim select and fill are all whole-slice ``numpy``
   expressions.  Distinct sets never interact, so reordering work
   across sets inside a slice preserves the scalar semantics exactly.
4. **Write back** the arrays into the scalar lists (LRU order is
   rebuilt from ``pos`` by argsort) and flush the batched counters.

Victim selection folds the scalar class-then-LRU scan into one
``argmax`` over the composite key ``class_rank * W + pos`` with ranks
INVALID=3 > INVERTED=2 > VALID=1 (INVERTED drops to rank 0 when
``allow_inverted_victims`` is off), which reproduces
:meth:`Cache.victim_way` including its all-inverted fallback.

Consecutive same-line accesses of a set are run-compressed: once a
line has been touched it sits VALID at MRU, so each repeat is a
position-0 hit with no state change — only the counters advance.

:meth:`replay_scheme` extends the same engine to whole *protected*
replays for the set- and way-granularity schemes, whose rotations are
deterministic functions of the access counter: the stream is processed
in segments between rotation boundaries, with the scalar
``scheme._rotate()`` applied on the synchronised list state at each
boundary.  The line-granularity schemes draw from the shared RNG after
every access, so the engine declines them and they run the inherited
scalar kernel :meth:`Cache.replay_inverting` (see DESIGN.md section 10).

Everything stays bit-identical to the reference backend; the
differential fuzz in ``tests/test_backends.py`` enforces it across
geometries, schemes and stream lengths.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.core.cache_like import InversionScheme, SetFixedScheme, WayFixedScheme
from repro.obs.trace import TRACER as _TRACER
from repro.uarch.backends.base import KernelBackend
from repro.uarch.backends.reference import Cache, CacheConfig, LineState
from repro.uarch.tlb import TLB, TLBConfig

_INVALID, _VALID, _INVERTED = 0, 1, 2
_STATE_CODE = {LineState.INVALID: _INVALID, LineState.VALID: _VALID,
               LineState.INVERTED: _INVERTED}
_CODE_STATE = (LineState.INVALID, LineState.VALID, LineState.INVERTED)

#: Addresses consumed per numpy batch; bounds memory for lazy streams.
_CHUNK = 1 << 16

#: Straggler cutoff: drop to the scalar loop once fewer than this many
#: sets still have unprocessed accesses in the current segment ...
_TAIL_SETS = 16
#: ... but only when the tail is big enough to repay the list sync.
_TAIL_ACCESSES = 256

if np is not None:
    #: Victim-class ranks by state code (INVALID, VALID, INVERTED); the
    #: composite key ``rank * ways + pos`` makes argmax reproduce the
    #: scalar class-then-reversed-LRU scan of ``Cache.victim_way``.
    _RANK_ALLOW = np.array([3, 1, 2], dtype=np.int64)
    _RANK_NOINV = np.array([3, 1, 0], dtype=np.int64)


class _Batch:
    """Counters accumulated across one replay's chunks."""

    __slots__ = ("hits", "misses", "shadow_hits", "refills", "hist")

    def __init__(self, ways: int) -> None:
        self.hits = 0
        self.misses = 0
        self.shadow_hits = 0
        self.refills = 0
        self.hist = np.zeros(ways, dtype=np.int64)


class _VectorReplayMixin(Cache):
    """Array-native ``replay`` over the scalar cache's list state."""

    __slots__ = ()

    # -- structure-of-arrays conversion --------------------------------
    def _materialize(self) -> Tuple[Any, Any, Any, Any]:
        """Snapshot the scalar lists into int/bool SoA arrays."""
        code = _STATE_CODE
        tags = np.array(
            [[-1 if t is None else t for t in row] for row in self._tags],
            dtype=np.int64,
        )
        state = np.array(
            [[code[s] for s in row] for row in self._state],
            dtype=np.int64,
        )
        pos = np.array(self._lru_pos, dtype=np.int64)
        shadow = np.array(self._shadow, dtype=bool)
        return tags, state, pos, shadow

    def _writeback(self, tags: Any, state: Any, pos: Any,
                   shadow: Any) -> None:
        """Restore the scalar lists (and counters) from the arrays."""
        code_state = _CODE_STATE
        tag_rows = tags.tolist()
        state_rows = state.tolist()
        pos_rows = pos.tolist()
        # pos holds a permutation of 0..W-1 per set, so argsort is the
        # exact inverse: order[p] = the way at stack position p.
        order_rows = np.argsort(pos, axis=1).tolist()
        shadow_rows = shadow.tolist()
        for s in range(self._sets):
            self._tags[s] = [None if t == -1 else t for t in tag_rows[s]]
            self._state[s] = [code_state[c] for c in state_rows[s]]
            self._lru_pos[s] = pos_rows[s]
            self._lru_order[s] = order_rows[s]
            self._shadow[s] = shadow_rows[s]
        self._inverted_lines = int(np.count_nonzero(state == _INVERTED))
        self._shadow_lines = int(np.count_nonzero(shadow))

    # -- batched engine ------------------------------------------------
    def _decode(self, chunk: Any, live: Optional[Any]) -> Tuple[Any, Any]:
        """(set, tag) arrays of a raw address chunk.

        ``live`` applies the set-granularity scheme's index fold: the
        line address hashes into the live sets and the whole line id
        becomes the tag (exactly ``SetFixedScheme._remap`` composed
        with the plain decode).
        """
        line = chunk // self._line_bytes
        if live is None:
            return line % self._sets, line // self._sets
        return live[line % live.size], line

    def _replay_arrays(self, set_idx: Any, tag: Any,
                       arrays: Tuple[Any, Any, Any, Any],
                       batch: _Batch) -> Tuple[Any, Any, Any, Any]:
        """Process one in-order segment of decoded accesses.

        Returns the (possibly re-materialised) state arrays: when the
        straggler tail drops to the scalar path, the arrays are synced
        to the lists and rebuilt afterwards.
        """
        tags, state, pos, shadow = arrays
        if set_idx.size == 0:
            return arrays
        ways = self._ways
        order = np.argsort(set_idx, kind="stable")
        s_sets = set_idx[order]
        s_tags = tag[order]
        # Run-compress repeats *within each set's subsequence*: after
        # any access the line sits VALID at MRU, so each repeat is a
        # position-0 hit (shadow-counted iff the line's bit is set,
        # which fills have just cleared) with no state change.
        if s_sets.size > 1:
            repeat = np.empty(s_sets.size, dtype=bool)
            repeat[0] = False
            np.logical_and(s_sets[1:] == s_sets[:-1],
                           s_tags[1:] == s_tags[:-1], out=repeat[1:])
            if repeat.any():
                keep = np.nonzero(~repeat)[0]
                s_reps = np.diff(np.append(keep, s_sets.size)) - 1
                s_sets = s_sets[keep]
                s_tags = s_tags[keep]
            else:
                s_reps = np.zeros(s_sets.size, dtype=np.int64)
        else:
            s_reps = np.zeros(s_sets.size, dtype=np.int64)
        counts = np.bincount(s_sets, minlength=self._sets)
        offsets = np.zeros(self._sets, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        # Active sets ordered by descending access count: at time-slice
        # k exactly the first n_acts[k] of them still have work, so the
        # per-slice views below are contiguous leading slabs.
        order_desc = np.argsort(-counts, kind="stable")
        nz = int(np.count_nonzero(counts))
        act_all = order_desc[:nz]
        counts_act = counts[act_all]
        off_desc = offsets[act_all]
        max_k = int(counts_act[0]) if nz else 0
        n_acts = np.searchsorted(-counts_act, -np.arange(max_k),
                                 side="left")
        # Straggler cutoff: once fewer than _TAIL_SETS sets remain the
        # per-slice numpy overhead exceeds the scalar loop, so the
        # remaining per-set suffixes run on the list state instead
        # (distinct sets never interact, so processing them set-major
        # is order-equivalent).  Tiny tails stay vectorized: a list
        # sync would cost more than it saves.
        k_cut = max_k
        small = np.nonzero(n_acts < _TAIL_SETS)[0]
        if small.size:
            candidate = int(small[0])
            over = counts_act > candidate
            tail_n = int((counts_act[over] - candidate).sum())
            if tail_n >= _TAIL_ACCESSES:
                k_cut = candidate
        rank = _RANK_ALLOW if self.allow_inverted_victims else _RANK_NOINV
        hist = batch.hist
        # Working slabs: one gather per segment instead of one per
        # slice; scattered back after the slice loop.
        stA = state[act_all]
        tgA = tags[act_all]
        poA = pos[act_all]
        shA = shadow[act_all]
        rows_all = np.arange(nz)
        for k in range(k_cut):
            n_k = int(n_acts[k])
            st = stA[:n_k]
            tg = tgA[:n_k]
            po = poA[:n_k]
            sh = shA[:n_k]
            rows = rows_all[:n_k]
            idx = off_desc[:n_k] + k
            t = s_tags[idx]
            r = s_reps[idx]
            match = (st == _VALID) & (tg == t[:, None])
            hit = match.any(axis=1)
            way = np.argmax(match, axis=1)
            if not hit.all():
                victim = np.argmax(rank[st] * ways + po, axis=1)
                way = np.where(hit, way, victim)
            p = po[rows, way]
            if hit.any():
                hrow = rows[hit]
                hist += np.bincount(p[hit], minlength=ways)
                rh = r[hit]
                n_rep = int(rh.sum())
                batch.hits += int(hrow.size) + n_rep
                hist[0] += n_rep
                shh = sh[hrow, way[hit]]
                batch.shadow_hits += int(shh.sum()) + int((rh * shh).sum())
            miss = ~hit
            if miss.any():
                mrow = rows[miss]
                mway = way[miss]
                batch.refills += int(
                    np.count_nonzero(st[mrow, mway] == _INVERTED)
                )
                sh[mrow, mway] = False
                tg[mrow, mway] = t[miss]
                st[mrow, mway] = _VALID
                batch.misses += int(mrow.size)
                n_rep = int(r[miss].sum())
                batch.hits += n_rep
                hist[0] += n_rep
            po += po < p[:, None]
            po[rows, way] = 0
        state[act_all] = stA
        tags[act_all] = tgA
        pos[act_all] = poA
        shadow[act_all] = shA
        if k_cut < max_k:
            self._writeback(tags, state, pos, shadow)
            for i in range(int(n_acts[k_cut])):
                lo = int(off_desc[i]) + k_cut
                hi = int(off_desc[i] + counts_act[i])
                self._scalar_tail(int(act_all[i]),
                                  s_tags[lo:hi].tolist(),
                                  s_reps[lo:hi].tolist(), batch)
            return self._materialize()
        return arrays

    def _scalar_tail(self, set_index: int, tag_list: List[int],
                     reps_list: List[int], batch: _Batch) -> None:
        """Scalar (list-state) replay of one set's access suffix."""
        states = self._state[set_index]
        tags = self._tags[set_index]
        positions = self._lru_pos[set_index]
        shadow = self._shadow[set_index]
        touch, fill = self._touch, self._fill
        valid = LineState.VALID
        way_range = range(self._ways)
        hist = batch.hist
        hits = misses = shadow_hits = 0
        for tag, reps in zip(tag_list, reps_list):
            hit_way = -1
            for way in way_range:
                if states[way] is valid and tags[way] == tag:
                    hit_way = way
                    break
            if hit_way >= 0:
                position = positions[hit_way]
                hist[position] += 1
                hits += 1 + reps
                hist[0] += reps
                if shadow[hit_way]:
                    shadow_hits += 1 + reps
                if position:
                    touch(set_index, hit_way)
            else:
                misses += 1
                # _fill updates refills_of_inverted and the inverted/
                # shadow counters on self directly (scalar semantics).
                fill(set_index, tag)
                hits += reps
                hist[0] += reps
        batch.hits += hits
        batch.misses += misses
        batch.shadow_hits += shadow_hits

    def _flush_stats(self, batch: _Batch) -> None:
        stats = self.stats
        stats.accesses += batch.hits + batch.misses
        stats.hits += batch.hits
        stats.misses += batch.misses
        stats.shadow_hits += batch.shadow_hits
        stats.refills_of_inverted += batch.refills
        positions = stats.hit_way_position
        for position, count in enumerate(batch.hist.tolist()):
            if count:
                positions[position] = positions.get(position, 0) + count

    # -- public surface ------------------------------------------------
    def replay(self, addresses: Iterable[int]) -> int:
        """Batched drop-in for :meth:`Cache.replay` (same span, bits)."""
        _t = _TRACER.begin()
        arrays = self._materialize()
        batch = _Batch(self._ways)
        stream = iter(addresses)
        while True:
            chunk = np.fromiter(islice(stream, _CHUNK), dtype=np.int64)
            if chunk.size:
                set_idx, tag = self._decode(chunk, None)
                arrays = self._replay_arrays(set_idx, tag, arrays, batch)
            if chunk.size < _CHUNK:
                break
        self._writeback(*arrays)
        self._flush_stats(batch)
        if _t is not None:
            _TRACER.end(_t, "cache.replay", cache=self.config.name,
                        accesses=batch.hits + batch.misses,
                        misses=batch.misses)
        return batch.hits

    def replay_scheme(self, scheme: InversionScheme,
                      addresses: Iterable[int]) -> Optional[int]:
        """Whole-stream protected replay, if the scheme is batchable.

        Returns ``None`` — *without* consuming ``addresses`` — when the
        scheme needs the scalar path, so the caller can fall back to
        the scheme's own ``scheme.replay``.  Exact type checks keep scheme
        subclasses (which may override per-access behaviour) on the
        scalar path automatically.
        """
        if type(scheme) is SetFixedScheme:
            return self._replay_rotating(scheme, addresses, remap=True)
        if type(scheme) is WayFixedScheme:
            return self._replay_rotating(scheme, addresses, remap=False)
        return None

    def _replay_rotating(self, scheme: Any, addresses: Iterable[int],
                         remap: bool) -> int:
        """Replay through a rotation-period scheme in batched segments.

        The scheme rotates exactly when its access counter hits a
        multiple of ``rotation_period`` (checked *before* the access),
        so rotation points are known in advance: process maximal
        rotation-free segments with the array engine, and apply the
        scalar ``scheme._rotate()`` on the synchronised list state at
        each boundary.
        """
        arrays = self._materialize()
        batch = _Batch(self._ways)
        period = scheme.rotation_period
        counter = scheme._accesses
        live = (np.asarray(scheme._live, dtype=np.int64)
                if remap else None)
        stream = iter(addresses)
        while True:
            chunk = np.fromiter(islice(stream, _CHUNK), dtype=np.int64)
            i = 0
            n = int(chunk.size)
            while i < n:
                until = (-counter) % period or period
                if until == 1:
                    # The next access increments the counter onto the
                    # boundary: rotate first, on scalar state.
                    self._writeback(*arrays)
                    scheme._accesses = counter
                    scheme._rotate()
                    arrays = self._materialize()
                    if remap:
                        live = np.asarray(scheme._live, dtype=np.int64)
                    run = period
                else:
                    run = until - 1
                seg = chunk[i:i + min(run, n - i)]
                set_idx, tag = self._decode(seg, live)
                arrays = self._replay_arrays(set_idx, tag, arrays, batch)
                counter += int(seg.size)
                i += int(seg.size)
            if chunk.size < _CHUNK:
                break
        self._writeback(*arrays)
        self._flush_stats(batch)
        scheme._accesses = counter
        return batch.hits


class VectorCache(_VectorReplayMixin):
    """A :class:`Cache` whose ``replay`` runs on the numpy engine."""

    __slots__ = ()


class VectorTLB(_VectorReplayMixin, TLB):
    """A :class:`TLB` whose ``replay`` runs on the numpy engine."""

    __slots__ = ()


# ----------------------------------------------------------------------
# The backend wrapper: the SoA structures
# ----------------------------------------------------------------------
class VectorizedBackend(KernelBackend):
    """The numpy engine (requires the ``fast`` optional dependency)."""

    __slots__ = ()

    name = "vectorized"

    def __init__(self) -> None:
        if np is None:
            from repro.config.specs import SpecError

            raise SpecError(
                'kernel backend "vectorized" requires numpy, which is '
                "not installed; install the 'fast' extra "
                "(pip install 'repro-penelope[fast]') or select "
                "backend=\"reference\""
            )

    def make_cache(self, config: CacheConfig) -> Cache:
        return VectorCache(config)

    def make_tlb(self, config: TLBConfig) -> TLB:
        return VectorTLB(config)
