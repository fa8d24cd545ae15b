import json

import numpy as np
import pytest

from loopscope.taskgen import (
    ARROW,
    RENDER_LEN,
    Benchmark,
    build_world,
    generate_benchmark,
    generate_item,
    make_variants,
    permute_options,
    render_tokens,
    write_benchmark_jsonl,
)


@pytest.fixture(scope="module")
def world():
    return build_world(seed=99)


def gen_ok(world, rng, **kw):
    while True:
        try:
            return generate_item(world, rng, **kw)
        except ValueError:
            continue


def test_world_deterministic():
    a = build_world(seed=5)
    b = build_world(seed=5)
    assert a.facts == b.facts
    assert a.vocab == b.vocab


def test_world_counts():
    w = build_world(seed=1, n_categories=4, entities_per_category=8,
                    n_attributes=4)
    assert len(w.all_entities) == 32
    assert len(w.facts) == 128


def test_world_vocab_budget():
    with pytest.raises(ValueError):
        build_world(seed=1, n_categories=50, entities_per_category=50,
                    n_attributes=4, vocab_budget=256)


@pytest.mark.parametrize("coherence", [-0.1, 1.5, float("nan")])
def test_world_rejects_coherence_outside_unit_interval(coherence):
    with pytest.raises(ValueError, match="category_coherence"):
        build_world(seed=1, category_coherence=coherence)


@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
def test_benchmark_rejects_two_hop_fraction_outside_unit_interval(world,
                                                                   fraction):
    with pytest.raises(ValueError, match="two_hop_fraction"):
        generate_benchmark(world, n_stems=2, seed=1, two_hop_fraction=fraction)


def test_every_entity_in_exactly_one_category(world):
    seen = {}
    for c in world.categories:
        for e in world.entities[c]:
            assert e not in seen
            seen[e] = c
    assert len(seen) == len(world.all_entities)


def test_base_item_construction(world):
    rng = np.random.default_rng(0)
    for _ in range(50):
        item = gen_ok(world, rng)
        correct = item.options[item.correct_index]
        cat = world.category_of(correct)
        # all options share the correct answer's category
        assert all(world.category_of(o) == cat for o in item.options)
        # the correct option answers the probe per the fact table
        assert world.facts[(correct, item.query_attr)] == item.target_value
        # exactly one option answers it
        n_match = sum(world.facts[(o, item.query_attr)] == item.target_value
                      for o in item.options)
        assert n_match == 1


def test_base_distractors_beat_random_cross_category(world):
    rng = np.random.default_rng(1)
    base_sims = []
    for _ in range(200):
        item = gen_ok(world, rng)
        base_sims.extend(s for i, s in enumerate(item.similarities)
                         if i != item.correct_index)
    cross = []
    ents = world.all_entities
    for _ in range(1000):
        a, b = rng.choice(len(ents), size=2, replace=False)
        if world.category_of(ents[a]) != world.category_of(ents[b]):
            cross.append(world.similarity(ents[a], ents[b]))
    assert np.mean(base_sims) > np.mean(cross)
    for s in base_sims:
        assert s > np.mean(cross)  # the 0.5 category indicator guarantees it


def test_variants_contract(world):
    rng = np.random.default_rng(2)
    for _ in range(30):
        base = gen_ok(world, rng)
        v = make_variants(base, world, rng)
        correct = base.options[base.correct_index]
        cat = world.category_of(correct)
        # stems bit-identical across variants
        assert v["Base"].stem_tokens == v["Easy"].stem_tokens == v["NoCorrect"].stem_tokens
        # Easy: distractors from other categories, correct answer shared with Base
        easy = v["Easy"]
        assert easy.options[easy.correct_index] == correct
        for i, o in enumerate(easy.options):
            if i != easy.correct_index:
                assert world.category_of(o) != cat
        # NoCorrect: four same-category options, none answering the probe
        nc = v["NoCorrect"]
        assert nc.correct_index is None
        for o in nc.options:
            assert world.category_of(o) == cat
            assert world.facts[(o, base.query_attr)] != base.target_value
        # similarity of the correct answer >= every Easy distractor
        assert all(1.0 >= s for s in easy.similarities)
        for i, s in enumerate(easy.similarities):
            if i != easy.correct_index:
                assert easy.similarities[easy.correct_index] >= s


def test_two_hop_stem_resolves(world):
    rng = np.random.default_rng(3)
    item = gen_ok(world, rng, two_hop=True)
    attr, a2, e2, _ = item.stem_tokens
    assert world.facts[(e2, a2)] == item.target_value
    correct = item.options[item.correct_index]
    assert world.facts[(correct, attr)] == item.target_value


def test_permutations(world):
    rng = np.random.default_rng(4)
    item = gen_ok(world, rng)
    perms = permute_options(item, seed=7, n_permutations=25)
    assert len(perms) == 25
    again = permute_options(item, seed=7, n_permutations=25)
    assert [p.perm for p in perms] == [p.perm for p in again]
    # 25 draws over 24 orderings: a repeat must exist
    assert len({p.perm for p in perms}) < 25
    for p in perms:
        # inverse round trip restores original order
        restored = [None] * 4
        for new_pos, old_idx in enumerate(p.perm):
            restored[old_idx] = p.options[new_pos]
        assert restored == item.options
        if p.correct_index is not None:
            assert p.options[p.correct_index] == item.options[item.correct_index]


def test_identity_permutation(world):
    item = gen_ok(world, np.random.default_rng(5))
    from loopscope.taskgen import PermutedItem
    p = PermutedItem(item=item, perm=(0, 1, 2, 3), perm_index=0)
    assert p.correct_index == item.correct_index
    assert p.options == item.options


def test_render_fixed_length(world):
    rng = np.random.default_rng(6)
    item = gen_ok(world, rng)
    perm = permute_options(item, seed=1, n_permutations=1)[0]
    toks = render_tokens(perm)
    assert len(toks) == RENDER_LEN
    assert toks[-1] == ARROW
    ids = world.encode(toks)
    assert ids.shape == (RENDER_LEN,)


def test_benchmark_deterministic_and_scaled(world):
    b1 = generate_benchmark(world, n_stems=260, seed=11, n_permutations=5)
    b2 = generate_benchmark(world, n_stems=260, seed=11, n_permutations=5)
    assert len(b1.stems()) == 260
    assert len(b1.items) == 3 * 260
    for x, y in zip(b1.items, b2.items):
        assert x == y
    # similarity ordering over the full benchmark
    base_mean = np.mean([s for it in b1.items if it.variant == "Base"
                         for i, s in enumerate(it.similarities)
                         if i != it.correct_index])
    easy_mean = np.mean([s for it in b1.items if it.variant == "Easy"
                         for i, s in enumerate(it.similarities)
                         if i != it.correct_index])
    assert base_mean > easy_mean


def test_benchmark_jsonl_round_trip(world, tmp_path):
    bench = generate_benchmark(world, n_stems=5, seed=12, n_permutations=3)
    path = tmp_path / "bench.jsonl"
    write_benchmark_jsonl(bench, path)
    # writing again produces identical bytes
    path2 = tmp_path / "bench2.jsonl"
    write_benchmark_jsonl(bench, path2)
    assert path.read_bytes() == path2.read_bytes()
