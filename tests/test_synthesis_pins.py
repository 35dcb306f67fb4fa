"""Pinned workload synthesis: the draw rules it relies on and its output.

The synthesis kernels (DESIGN.md section 3) draw what ``randrange``,
``choice`` and ``choices`` would, straight from ``getrandbits`` and
``random``.  The first half of this file pins those draw rules on the
running interpreter, so a Python release that changes one fails here,
naming the call.  The second half pins the sha256 of each suite's uop
trace and address stream, and of a multiprogram stream per policy; the
digests were recorded before the kernels replaced the per-draw helper
calls.  Regenerate them only for a change that is *meant* to alter
synthesis.

Needs only the standard library and pytest: CI runs this file on every
supported interpreter.
"""

import bisect
import dataclasses
import hashlib
import itertools
import random

import pytest

from repro.workloads import (
    SUITE_PROFILES,
    TraceGenerator,
    generate_address_stream,
    iter_address_stream,
    multiprog_address_stream,
    suite_names,
)


def below(rng, n):
    """``rng.randrange(n)`` by the rule the kernels use."""
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


def twins(seed):
    return random.Random(seed), random.Random(seed)


# ----------------------------------------------------------------------
# Draw rules
# ----------------------------------------------------------------------
def test_choices_is_bisect_right_over_cum_weights():
    mixes = [profile.uop_mix for profile in SUITE_PROFILES.values()]
    mixes += [(1,), (2, 2), (0.5, 0.0, 0.25, 3.0), (1, 2, 3, 4, 5)]
    for seed, mix in enumerate(mixes):
        cum = list(itertools.accumulate(mix))
        population = list(range(len(cum)))
        total = cum[-1] + 0.0
        library, rule = twins(seed)
        for __ in range(400):
            drawn = population[bisect.bisect_right(
                cum, rule.random() * total, 0, len(cum) - 1)]
            assert library.choices(population, cum_weights=cum)[0] == \
                drawn, mix
        assert library.getstate() == rule.getstate(), mix


def test_choice_is_a_draw_below_the_length():
    for n in range(1, 65):
        seq = tuple(range(n))
        library, rule = twins(n)
        for __ in range(20):
            assert library.choice(seq) == seq[below(rule, n)], n
        assert library.getstate() == rule.getstate(), n


def test_randrange_pair_is_an_offset_draw():
    for start in (-7, 0, 1, 64):
        for width in range(1, 41):
            library, rule = twins(start * 100 + width)
            for __ in range(10):
                assert library.randrange(start, start + width) == \
                    start + below(rule, width), (start, width)
            assert library.getstate() == rule.getstate(), (start, width)


def test_randrange_of_a_power_of_two_up_to_32_bits():
    # BiasedIntGenerator draws randrange(1 << k) for k up to 32, where
    # half of all getrandbits(k + 1) draws are redrawn.
    for k in range(33):
        library, rule = twins(k)
        for __ in range(50):
            assert library.randrange(1 << k) == below(rule, 1 << k), k
        assert library.getstate() == rule.getstate(), k


# ----------------------------------------------------------------------
# Pinned output
# ----------------------------------------------------------------------
TRACE_LENGTH = 1500
#: Crosses two of ``iter_address_stream``'s 4096-address chunks.
STREAM_LENGTH = 9000
MULTIPROG = ("specint2000", "office")
MULTIPROG_LENGTH = 5000
SEEDS = (0, 1)

TRACE_DIGESTS = {
    ("encoder", 0): "80751af411d31e68de33e39d757b3bebbc5f7e22d12c0cbf1ab22a6c46609561",
    ("encoder", 1): "69fa7ace3bf5def00de5d815b64f86cc717bcbe57fb43855daa3e3dc8efdb415",
    ("specfp2000", 0): "5ecbbd643a82cde46542b31247585596326585291d9a92a1a22cfb7d831059f1",
    ("specfp2000", 1): "6f558d910cd458b48f238f8b80b66e8e6f162a78c9eddebd3ad18196fa6bd5e7",
    ("specint2000", 0): "ffbf30c993707ac48d958ca9e41e0cdfed2f5581a7b87df67f3ee77239a1a1fd",
    ("specint2000", 1): "0c734bff5a36dfdec4289737e88ac99bab106e8b43f07644c9ef679792196812",
    ("kernels", 0): "d9295abb0761926922c9fdf1c6f039219838b525d95fc639b744f2a4113bb6aa",
    ("kernels", 1): "9bddd59a21fa580b150ce19a05c377b86e80f2364e52b01f48be82d1307a5c2f",
    ("multimedia", 0): "ce0f4ea9e08cf92e1b7ad367970cfdc9943cda174012ef370ead26cd3deb4c8a",
    ("multimedia", 1): "04315c181ed9708ab74c18c5810fd8b368cc6fb0a76538fd6f158e39979ad730",
    ("office", 0): "37187c4201c53bdfb2caef031129f8b1fafcb98b51308486f8b842f16b450f58",
    ("office", 1): "e026a3e891267d81a7c2905dfd05583ad2f1ef8990071507daa79fa9444ba627",
    ("productivity", 0): "68ea66350b2cd9ee5567aaa8b839e900dc30385e1b4e618310d05ac5555b6627",
    ("productivity", 1): "e35d72c9691b49aeeeb02eacd3c4c3d28ffd74affe18e9071dc0b1c9503508e1",
    ("server", 0): "4bfe16dfbe2f5ec341799eaf36ea0aee2cb68032c9df4592fdb3c12af6f5a96b",
    ("server", 1): "1456dff9b38d33b26c0b06d6b0c0c1ed039c925b99990b365b516283543feb3a",
    ("workstation", 0): "5ba72060e886962a62755fa5d1f7c6e5e420e22caadc4e5ad074934b08a0b8bf",
    ("workstation", 1): "af381dc209527d3b7e89335f80918f5273d6b19e765277d0c63c436c7bbf5fea",
    ("spec2006", 0): "36d7a56294e45fc1839e9ac8e1492e9ac17689d6c3e9ef04549f3dd04733915f",
    ("spec2006", 1): "e2f42cb6112002d4cbe0a7c0c4f0798f95cb3da963f475bcf870035e767aa273",
}

STREAM_DIGESTS = {
    ("encoder", 0): "c69e88bc0b146d4106227a3d6db3287e4fad06fd2fccfa6a39c91a6f8f86ec75",
    ("encoder", 1): "d4729aab8bf06eab2c532e3f4219a29a8bb29a4ab79f369ae181a85c5d08f07a",
    ("specfp2000", 0): "fe07b3c0a5159e8158d70cb1898dd3b160c2619ed421843403a55e5bd35842fc",
    ("specfp2000", 1): "8b45e37196dafd2bf055f7c02bcbeaf41cec5e146a3ecc429130128a253e0d2c",
    ("specint2000", 0): "dd6227ba43fed53610cbfce8c23e49394b533af57a42b92d42d2315a26d649d8",
    ("specint2000", 1): "68e403c5ee921c7e1d1ddc4c058dce58c1a92567a14f3366cb43e893b57b2e1a",
    ("kernels", 0): "b29f2b424fa31ee36067121dd445cae35d8dd6ffef8b901262453d186df5bf74",
    ("kernels", 1): "81ce3f637203d94884c1f00324c4d4fc8eec650dfe72c668b549e616eebcf460",
    ("multimedia", 0): "73501df9298d8b64740256a3dafff246e29d3eec5a193abcd5ad96eb23e7bc36",
    ("multimedia", 1): "53acd0d91942f89469eb54fd3f205f9bf778d6886ab5bd3dfd9b4c08faaab86c",
    ("office", 0): "f5f1f910f6579baa45f1a0cae1f333a947f971b607d1955ef75bfa170fcd6221",
    ("office", 1): "37c0d4069deed318e3dc19b366acc21b35d0942c99a7080887655a2a0186ebb4",
    ("productivity", 0): "78efd8143510cbfb0adda6bcde3597255cc781dc69e9fe66cdf55f0a2480f7a5",
    ("productivity", 1): "a44025a694fc7bded6d26e50be6b4b129fa8c1ada3087a0d6fa7b4f528be7919",
    ("server", 0): "35fcc479f028286d577f0084ce6cbd00a036a83482c28585feddfcb0f07c315b",
    ("server", 1): "5e836596fca964ac27f36432717115bb15f4a7a7c0bff8fb71472d11adda70d5",
    ("workstation", 0): "96700afa224cb019444d138f31fe6d4847d49aeec8221dd1c6c1f3e5aceefc9e",
    ("workstation", 1): "a659c91185e58ff125429e74432da10f517b0cb1442cd41c1c62fad989b92fdb",
    ("spec2006", 0): "f60977c70fbb5f96ca5150ca80c7e2268038c3529bcde253d20b0963fa9f4fd8",
    ("spec2006", 1): "f486d43e1e637c4faf0b4cdd668fd1b7cd81ea3c01361ec1416e3a06237254ea",
}

MULTIPROG_DIGESTS = {
    "round_robin": "ddd4c343b117dfdc3d50b3620fd8c14b4cea18f00508d92b562583cf9742e564",
    "random_slice": "366598298dcde18b9e7830c64e7a48edf6e867e615d1de9a7e6a6ac55485f1f8",
}


def digest(rows):
    blob = "\n".join(repr(row) for row in rows)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def uop_row(uop):
    """Every field of a uop; the class as its value, whose repr is the
    same on every Python version."""
    row = dataclasses.astuple(uop)
    return row[:1] + (uop.uop_class.value,) + row[2:]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", suite_names())
def test_trace_matches_pinned_digest(suite, seed):
    trace = TraceGenerator(seed).generate(suite, length=TRACE_LENGTH)
    assert digest(map(uop_row, trace)) == TRACE_DIGESTS[suite, seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", suite_names())
def test_address_stream_matches_pinned_digest(suite, seed):
    stream = generate_address_stream(suite, length=STREAM_LENGTH, seed=seed)
    assert list(iter_address_stream(suite, length=STREAM_LENGTH,
                                    seed=seed)) == stream
    assert digest(stream) == STREAM_DIGESTS[suite, seed]


@pytest.mark.parametrize("policy", ["round_robin", "random_slice"])
def test_multiprog_stream_matches_pinned_digest(policy):
    stream = list(multiprog_address_stream(
        MULTIPROG, length=MULTIPROG_LENGTH, seed=3, policy=policy))
    assert len(stream) == MULTIPROG_LENGTH * len(MULTIPROG)
    assert digest(stream) == MULTIPROG_DIGESTS[policy]
