import importlib.util
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lassodist import rng
from lassodist._genz import _lattice_shifts
from lassodist.errors import InputError
from lassodist.rng import normal_chunk

# the first five lattice-shift uniforms of three (entropy, spawn_key) streams:
# lassodist's own reproducibility contract, whatever numpy is installed
PINNED = {
    (0, ()): [0.3616904771377427, 0.9067071769868569, 0.36288511911559707,
              0.9467936684657978, 0.098939924480417],
    (7, (0, 1)): [0.07212698204794732, 0.6378015851968872, 0.9553728023558142,
                  0.7922016472260069, 0.15938793640800808],
    (2**40 + 3, (5,)): [0.40005006862661263, 0.5180601930756646, 0.8661414384703238,
                        0.8088243650923539, 0.7583506964201223],
}


@pytest.mark.parametrize("seed", PINNED, ids=str)
def test_lattice_shifts_are_pinned(seed):
    assert _lattice_shifts(seed, 1, 5).ravel().tolist() == PINNED[seed]
    # shifts are filled row by row, and a shorter stream is a prefix of a longer one
    assert _lattice_shifts(seed, 5, 1).ravel().tolist() == PINNED[seed]
    assert _lattice_shifts(seed, 1, 2).ravel().tolist() == PINNED[seed][:2]


def test_lattice_shift_streams_are_distinct_and_leave_the_global_state():
    # keys that a looser encoding would merge: entropy and key entries swapped,
    # a key entry of 0 against none, and the digits of two entries run together
    seeds = [(0, ()), (0, (0,)), (0, (0, 0)), (1, (2,)), (2, (1,)), (1, (23,)), (12, (3,)),
             (7, (0, 1)), (7, (1, 0)), (7, (1,)), (2**40 + 3, (5,))]
    state = random.getstate()
    streams = {tuple(_lattice_shifts(seed, 2, 3).ravel()) for seed in seeds}
    assert len(streams) == len(seeds)
    assert random.getstate() == state


# numpy's own generator, the oracle of the port (tests only: lassodist never loads numpy.random)
def _numpy_chunk(seed, chunk_index, shape):
    bitgen = np.random.Philox(np.random.SeedSequence((seed, chunk_index)))
    return np.random.Generator(bitgen).standard_normal(shape)


# multi-word entropy at 2^32 + 5 and 2^64 + 7, and a chunk index of two words
SEEDS = [*range(40), 2**31 - 1, 2**32 + 5, 2**64 + 7]
CHUNKS = [0, 1, 2, 3, 2**32 + 1]
SHAPES = [(1, 1), (7, 1), (400, 4), (2048, 5), (4096, 3), (1024, 50)]


def test_normal_chunk_is_numpys_philox_standard_normal(monkeypatch):
    # 1290 chunks, bitwise, and among them draws from both slow branches of
    # the ziggurat: the base strip's tail and the strip test that rejects
    counts = {"tails": 0, "strip_fails": 0}

    def tail(words, i):
        drawn = real_tail(words, i)
        counts["tails"] += drawn is not None
        return drawn

    def strip_test(words, x, strips):
        passes = real_strip_test(words, x, strips)
        counts["strip_fails"] += int(np.count_nonzero(~passes))
        return passes

    real_tail, real_strip_test = rng._tail, rng._strip_test
    monkeypatch.setattr(rng, "_tail", tail)
    monkeypatch.setattr(rng, "_strip_test", strip_test)
    cases = 0
    for seed in SEEDS:
        for chunk_index in CHUNKS:
            for shape in SHAPES:
                got = normal_chunk(seed, chunk_index, shape)
                assert got.shape == shape
                assert got.tobytes() == _numpy_chunk(seed, chunk_index, shape).tobytes(), \
                    (seed, chunk_index, shape)
                cases += 1
    assert cases >= 1000
    assert counts["tails"] > 0 and counts["strip_fails"] > 0, counts


# five draws of each of four streams: lassodist's own reproducibility
# contract, whatever numpy is installed. A key is (seed, chunk index) for the
# first five, or (seed, chunk index, flat index) for five from that index on
PINNED_NORMALS = {
    (0, 0): [-0.2059740286292238, -0.12884495093462758, -0.28978987549091256,
             -1.271943284573895, -1.4064349008284343],
    (12345, 7): [-0.21115958387046121, 0.10842283093910139, 1.0015506269526946,
                 0.8513914287896018, -0.360333041613959],
    (2**64 + 7, 2**32 + 1): [0.9075455246593128, 0.32215508018877737, -0.48041009347776875,
                             0.026813047715204298, -1.3504577622140903],
    # flat indices 40,000-40,004 of normal_chunk(0, 0, (1024, 50)): a later
    # slice, whose counters are past _SLICE_BLOCKS
    (0, 0, 40000): [-0.07131666387512851, -0.00029841782761843064, 0.20558218912160184,
                    2.277730106296453, 0.5455928946928073],
}


@pytest.mark.parametrize("key", PINNED_NORMALS, ids=str)
def test_normal_chunk_is_pinned(key):
    seed, chunk_index, start = (*key, 0)[:3]
    expected = PINNED_NORMALS[key]
    assert normal_chunk(seed, chunk_index, start + 5)[start:].tolist() == expected
    # a chunk is one stream, filled row by row
    assert normal_chunk(seed, chunk_index, (1024, 50)).ravel()[start:start + 5].tolist() == expected


def test_normal_chunk_works_in_bounded_memory():
    # 51,200 draws come from slices of at most _SLICE_BLOCKS blocks that
    # continue the counter: the call holds its output plus one slice's
    # working set. The module's tables are built at import; a first draw
    # before tracing keeps one-time allocations out of the peak
    normal_chunk(0, 0, (1, 1))
    tracemalloc.start()
    try:
        out = normal_chunk(781471706, 0, (1024, 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 0.5 * 2**20, peak - out.nbytes


def test_normal_chunk_rejects_negative_seeds_and_chunks():
    with pytest.raises(InputError):
        normal_chunk(-1, 0, 3)
    with pytest.raises(InputError):
        normal_chunk(0, -1, 3)


def _ziggurat_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "ziggurat_table.py"
    spec = importlib.util.spec_from_file_location("ziggurat_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_ziggurat_tables_are_numpys():
    # the script reads the literal that rng runs with; the installed numpy's
    # library holds the same bytes (CI runs the script's --check as well)
    script = _ziggurat_script()
    ours = script.committed()
    assert np.frombuffer(ours["_FI"], "<f8").tolist() == rng._FI.tolist()
    assert np.array_equal(np.frombuffer(ours["_WI"], "<f8"), rng._WI_SIGNED[:256])
    assert np.array_equal(-np.frombuffer(ours["_WI"], "<f8"), rng._WI_SIGNED[256:])
    assert np.array_equal(np.frombuffer(ours["_KI"], "<u8").view(np.int64), rng._KI[:256])
    assert np.array_equal(rng._KI[:256], rng._KI[256:])
    library = script.library()
    if not library.exists():
        pytest.skip(f"{library} is not installed")
    assert script.extract(library.read_bytes()) == ours
