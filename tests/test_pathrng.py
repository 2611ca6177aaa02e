"""Seeding contract v2: path-keyed counter streams (repro.core.pathrng).

The two properties everything else rests on are pinned here: *statelessness*
(any node's draws are recomputable from the root key and the path alone) and
*scalar/block bitwise identity* (one vectorised ``draw_block`` produces
exactly the uniforms the per-row scalar draws would have).
"""

import numpy as np
import pytest

from repro.core.pathrng import (
    GOLDEN,
    PathStream,
    child_key,
    child_keys,
    child_keys_multi,
    draw_block,
    root_key_from_seed,
    run_root_key,
    uniform_block,
)


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def test_root_key_is_deterministic_and_seed_sensitive():
    assert root_key_from_seed(7) == root_key_from_seed(7)
    assert root_key_from_seed(7) != root_key_from_seed(8)
    assert 0 <= root_key_from_seed(7) < 2**64


def test_root_key_accepts_seed_sequence_without_mutating_it():
    sequence = np.random.SeedSequence(42)
    key = root_key_from_seed(sequence)
    assert key == root_key_from_seed(42)
    # No spawning: planner and engine can both derive from a shared one.
    assert sequence.n_children_spawned == 0
    assert root_key_from_seed(sequence) == key


def test_child_keys_matches_scalar_chain():
    parent = run_root_key(13)
    # Small counts take the scalar path, large ones the vectorised hash.
    for count in (5, 40):
        vectorised = child_keys(parent, 3, count)
        assert vectorised.dtype == np.uint64
        assert [int(k) for k in vectorised] == [
            child_key(parent, 3 + i) for i in range(count)
        ]


def test_child_keys_multi_matches_scalar_chain():
    parents = [int(k) for k in child_keys(run_root_key(21), 0, 9)]
    # Small counts take the scalar path, large ones the vectorised hash.
    for count in (7, 45):
        parent_keys = [parents[k % len(parents)] for k in range(count)]
        indices = [(5 * k) % 11 for k in range(count)]
        keys = child_keys_multi(np.array(parent_keys, dtype=np.uint64), indices)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            child_key(parent, index)
            for parent, index in zip(parent_keys, indices)
        ]


def test_run_root_key_separates_runs():
    keys = {run_root_key(5, run_index) for run_index in range(8)}
    assert len(keys) == 8
    assert run_root_key(5, 0) == child_key(root_key_from_seed(5), 0)


def test_sibling_keys_are_decorrelated():
    parent = run_root_key(0)
    keys = [child_key(parent, i) for i in range(64)]
    assert len(set(keys)) == 64


# ----------------------------------------------------------------------
# Scalar / block bitwise identity
# ----------------------------------------------------------------------
def test_uniform_block_matches_scalar_draws():
    key = run_root_key(99)
    # Small blocks take the scalar path, large ones the vectorised one.
    for count in (6, 40):
        scalar = PathStream(key)
        values = [scalar.random() for _ in range(count)]
        block = uniform_block([key], [0], count)
        assert block.shape == (1, count)
        assert block[0].tolist() == values


def test_uniform_block_single_column_fast_path_consistency():
    for rows in (3, 20):
        keys = [run_root_key(seed) for seed in range(1, rows + 1)]
        counters = [(4 * row) % 19 for row in range(rows)]
        wide = uniform_block(keys, counters, 3)
        for column in range(3):
            narrow = uniform_block(
                keys, [c + column for c in counters], 1
            )
            assert narrow.shape == (rows, 1)
            assert narrow[:, 0].tolist() == wide[:, column].tolist()


def test_draw_block_advances_every_stream_like_scalar_draws():
    key_a, key_b = run_root_key(10), run_root_key(11)
    block_streams = [PathStream(key_a), PathStream(key_b)]
    scalar_streams = [PathStream(key_a), PathStream(key_b)]
    block = draw_block(block_streams, 4)
    assert block.shape == (2, 4)
    for row, stream in zip(block, scalar_streams):
        assert row.tolist() == [stream.random() for _ in range(4)]
    assert [s.counter for s in block_streams] == [4, 4]
    # Draws resume exactly where the block left off.
    assert draw_block(block_streams, 1)[0, 0] == scalar_streams[0].random()


def test_shaped_random_matches_scalar_sequence():
    reference = PathStream(run_root_key(21))
    shaped = PathStream(run_root_key(21))
    flat = [reference.random() for _ in range(6)]
    block = shaped.random((2, 3))
    assert block.shape == (2, 3)
    assert block.ravel().tolist() == flat
    assert shaped.counter == reference.counter == 6


def test_uniforms_land_in_unit_interval():
    block = uniform_block(
        [run_root_key(s) for s in range(32)], [0] * 32, 16
    )
    assert np.all(block >= 0.0)
    assert np.all(block < 1.0)
    # splitmix64 output should not collide across streams/counters here.
    assert len(set(block.ravel().tolist())) == block.size


# ----------------------------------------------------------------------
# PathStream semantics
# ----------------------------------------------------------------------
def test_path_stream_child_matches_child_key():
    stream = PathStream(run_root_key(2))
    child = stream.child(5)
    assert child.key == child_key(stream.key, 5)
    assert child.counter == 0


def test_path_stream_statelessness_across_processes_simulated():
    # Reconstructing the stream from (key, counter) resumes identically —
    # the property sharded dispatch relies on.
    stream = PathStream(run_root_key(77))
    for _ in range(9):
        stream.random()
    resumed = PathStream(stream.key, stream.counter)
    assert resumed.random() == PathStream(run_root_key(77), 9).random()


def test_golden_is_the_splitmix_increment():
    # Pin the constant: changing it silently would re-randomise every
    # artefact in the repo while all statistical tests keep passing.
    assert GOLDEN == 0x9E3779B97F4A7C15


@pytest.mark.parametrize("count", [1, 2, 7])
def test_uniform_block_accepts_numpy_and_python_ints(count):
    key = run_root_key(31)
    from_python = uniform_block([key], [3], count)
    from_numpy = uniform_block(
        np.asarray([key], dtype=np.uint64),
        np.asarray([3], dtype=np.uint64),
        count,
    )
    assert from_python.tolist() == from_numpy.tolist()
