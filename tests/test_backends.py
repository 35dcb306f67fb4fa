"""Differential fuzz pinning the vectorized backend to the reference.

DESIGN.md section 10 makes bit-exactness mandatory: for any stream, any
geometry and any scheme, the ``"vectorized"`` engine must leave the
cache in *exactly* the state the scalar ``"reference"`` engine would —
tags, line states, LRU order, shadow marks, every stats counter and the
hit-position histogram.  These tests sweep seeded random (geometry,
scheme, stream) combinations and compare full snapshots, plus:

- ``metrics().flatten()`` identity on every registered study at small
  lengths (the acceptance criterion of the backend extraction),
- reset-then-rerun identity on the vectorized engine (the PR 2
  determinism contract extends to every backend),
- the clean ``SpecError`` naming the ``fast`` extra when
  ``backend="vectorized"`` is selected without numpy.

Everything touching the vectorized engine skips (not fails) when numpy
is not installed.
"""

import random

import pytest

from repro.config.specs import ProcessorSpec, SpecError
from repro.core.cache_like import (
    LineDynamicScheme,
    LineFixedScheme,
    ProtectedCache,
    SetFixedScheme,
    WayFixedScheme,
)
from repro.uarch.backends import backend_names, get_backend
from repro.uarch.backends import Cache, CacheConfig
from repro.uarch.tlb import TLBConfig

def _require_numpy():
    return pytest.importorskip("numpy")


GEOMETRIES = [
    CacheConfig(name="g-1K-2w", size_bytes=1024, ways=2),
    CacheConfig(name="g-2K-4w", size_bytes=2 * 1024, ways=4),
    CacheConfig(name="g-8K-8w", size_bytes=8 * 1024, ways=8),
    CacheConfig(name="g-32K-4w", size_bytes=32 * 1024, ways=4),
]

SCHEME_FACTORIES = {
    "none": None,
    "set_fixed": lambda: SetFixedScheme(0.5, rotation_period=137),
    "way_fixed": lambda: WayFixedScheme(0.5, rotation_period=211),
    "line_fixed": lambda: LineFixedScheme(0.5),
    "line_dynamic": lambda: LineDynamicScheme(
        ratio=0.6, threshold=0.02, warmup=150, test_window=150,
        period=900,
    ),
}


def mixed_stream(seed: int, length: int, span_lines: int = 4096) -> list:
    """Hot-set plus uniform tail, the shape real traces have."""
    rng = random.Random(seed)
    hot = [rng.randrange(span_lines // 8) * 64 for __ in range(24)]
    out = []
    for __ in range(length):
        if rng.random() < 0.55:
            out.append(rng.choice(hot))
        else:
            out.append(rng.randrange(span_lines) * 64)
    return out


def snapshot(cache: Cache) -> dict:
    """Full observable + internal state of a cache, order-sensitive."""
    stats = cache.stats
    return {
        "tags": [list(row) for row in cache._tags],
        "state": [list(row) for row in cache._state],
        "lru_order": [list(row) for row in cache._lru_order],
        "lru_pos": [list(row) for row in cache._lru_pos],
        "shadow": [list(row) for row in cache._shadow],
        "inverted": cache.inverted_count(),
        "shadow_lines": cache.shadow_count(),
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "shadow_hits": stats.shadow_hits,
        "inversions": stats.inversions,
        "refills_of_inverted": stats.refills_of_inverted,
        "hit_way_position": dict(stats.hit_way_position),
        "flatten": cache.metrics().flatten(),
    }


class TestBackendRegistry:
    def test_names_are_stable(self):
        assert backend_names() == ["reference", "vectorized"]

    def test_unknown_backend_is_a_spec_error(self):
        with pytest.raises(SpecError, match="unknown kernel backend"):
            get_backend("simd512")

    def test_backends_are_singletons(self):
        assert get_backend("reference") is get_backend("reference")

    def test_processor_spec_validates_backend(self):
        with pytest.raises(SpecError, match="unknown kernel backend"):
            ProcessorSpec(backend="cuda")

    def test_backend_flows_into_core_config(self):
        assert ProcessorSpec().to_core_config().backend == "reference"

    def test_reference_builds_scalar_types(self):
        engine = get_backend("reference")
        cache = engine.make_cache(GEOMETRIES[0])
        assert type(cache) is Cache
        tlb = engine.make_tlb(TLBConfig(name="t", entries=64))
        assert tlb.translate(0) is False


class TestMissingNumpy:
    def test_vectorized_without_numpy_names_the_extra(self, monkeypatch):
        import repro.uarch.backends as backends
        import repro.uarch.backends.vectorized as vectorized

        monkeypatch.setattr(vectorized, "np", None)
        monkeypatch.setattr(backends, "_INSTANCES", {})
        with pytest.raises(SpecError, match="fast"):
            get_backend("vectorized")
        with pytest.raises(SpecError, match="requires numpy"):
            vectorized.VectorizedBackend()


class TestDifferentialFuzz:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_reference(self, scheme_name, seed):
        _require_numpy()
        rng = random.Random(seed * 7919 + hash(scheme_name) % 1000)
        for trial in range(3):
            config = GEOMETRIES[rng.randrange(len(GEOMETRIES))]
            length = rng.choice([0, 1, 37, 700, 3000])
            stream = mixed_stream(rng.randrange(1 << 30), length)
            factory = SCHEME_FACTORIES[scheme_name]
            if factory is None:
                ref = get_backend("reference").make_cache(config)
                vec = get_backend("vectorized").make_cache(config)
                ref_hits = ref.replay(stream)
                vec_hits = vec.replay(stream)
                ref_cache, vec_cache = ref, vec
            else:
                ref = ProtectedCache(
                    get_backend("reference").make_cache(config),
                    factory(), seed=seed,
                )
                vec = ProtectedCache(
                    get_backend("vectorized").make_cache(config),
                    factory(), seed=seed,
                )
                ref_hits = ref.replay(stream)
                vec_hits = vec.replay(stream)
                ref_cache, vec_cache = ref.cache, vec.cache
            assert ref_hits == vec_hits, (scheme_name, seed, trial)
            assert snapshot(ref_cache) == snapshot(vec_cache), (
                scheme_name, seed, trial, config.name, length,
            )

    @pytest.mark.parametrize("scheme_name", ["set_fixed", "way_fixed"])
    def test_chunk_boundary_rotations(self, scheme_name):
        """Rotation periods straddling the 65536-address batch chunk."""
        _require_numpy()
        config = CacheConfig(name="b-4K-4w", size_bytes=4 * 1024, ways=4)
        scheme_cls = (SetFixedScheme if scheme_name == "set_fixed"
                      else WayFixedScheme)
        stream = mixed_stream(5, 70_000, span_lines=2048)
        for period in (1, 2, 65_536, 65_537, 9_999):
            ref = ProtectedCache(
                get_backend("reference").make_cache(config),
                scheme_cls(0.5, rotation_period=period), seed=3,
            )
            vec = ProtectedCache(
                get_backend("vectorized").make_cache(config),
                scheme_cls(0.5, rotation_period=period), seed=3,
            )
            assert ref.replay(stream) == vec.replay(stream), period
            assert snapshot(ref.cache) == snapshot(vec.cache), period

    def test_vectorized_reset_reproduces_first_run(self):
        _require_numpy()
        config = GEOMETRIES[1]
        stream = mixed_stream(11, 2500)
        protected = ProtectedCache(
            get_backend("vectorized").make_cache(config),
            SetFixedScheme(0.5, rotation_period=97), seed=5,
        )
        protected.replay(stream)
        first = snapshot(protected.cache)
        protected.reset()
        protected.replay(stream)
        assert snapshot(protected.cache) == first

    def test_plain_vectorized_reset_identity(self):
        _require_numpy()
        cache = get_backend("vectorized").make_cache(GEOMETRIES[2])
        stream = mixed_stream(13, 2000)
        cache.replay(stream)
        first = snapshot(cache)
        cache.reset()
        cache.replay(stream)
        assert snapshot(cache) == first

    def test_declines_unbatchable_schemes_without_consuming(self):
        """The engine declines line schemes, whose replay runs the
        inherited scalar kernel ``Cache.replay_inverting``; it must not
        eat any addresses when it declines."""
        _require_numpy()
        cache = get_backend("vectorized").make_cache(GEOMETRIES[0])
        stream = iter(mixed_stream(17, 500))
        assert cache.replay_scheme(LineFixedScheme(0.5), stream) is None
        assert len(list(stream)) == 500


class TestStudyDifferential:
    """Acceptance criterion: every registered study's metric dict is
    bit-identical under ``"reference"`` and ``"vectorized"``."""

    def _point(self, name):
        from repro.experiments.registry import get_study

        study = get_study(name)
        params = dict(study.defaults)
        # Small lengths keep the whole matrix fast; identity must hold
        # at any length, so the value itself is arbitrary.
        if "length" in params:
            params["length"] = min(int(params["length"]), 1500)
        return study, params

    @pytest.mark.parametrize("name", [
        "caches", "invert_ratio", "victim_policy", "regfile",
        "vmin_power", "multiprog", "penelope",
    ])
    def test_flatten_identity(self, name):
        _require_numpy()
        study, params = self._point(name)
        ref = study.execute({**params, "backend": "reference"})
        vec = study.execute({**params, "backend": "vectorized"})
        assert ref == vec, name

    def test_all_studies_covered(self):
        """The matrix above goes stale silently if a study is added."""
        from repro.experiments.registry import get_study, study_names

        assert set(study_names()) == {
            "caches", "invert_ratio", "victim_policy", "regfile",
            "vmin_power", "multiprog", "penelope",
        }
        for name in study_names():
            study = get_study(name)
            assert study.defaults.get("backend") == "reference", name
            assert study.spec_paths.get("backend") == \
                "processor.backend", name
