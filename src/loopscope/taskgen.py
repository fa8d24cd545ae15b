"""Procedural four-choice QA benchmark with constructed semantics.

A synthetic world assigns every entity to one category and gives it a value
for each attribute; entities of the same category share attribute values more
often than chance, so "same category" is a real semantic signal. A question
shows an (attribute, value) probe and four candidate entities; exactly one
candidate has that value. Several entities in the world match any probe, so
the answer is only determined once the options are read — the model cannot
shortcut the question by memorizing a stem-to-answer table.

Each stem comes in three difficulty variants:
  Base      distractors share the correct answer's category, preferring
            "near misses" that carry the probe value under a different
            attribute, so they present genuinely competing evidence
  Easy      distractors come from other categories and carry the probe
            value under no attribute at all (obviously unrelated)
  NoCorrect the correct option is replaced with one more plausible distractor
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .seeds import derive_seed

PAD = "<pad>"
QMARK = "?"
ARROW = "->"
SPECIALS = [PAD, QMARK, ARROW]

VARIANTS = ("Base", "Easy", "NoCorrect")

# longest stem (2-hop: attr attr2 entity ?) + 4 options + arrow
RENDER_LEN = 4 + 4 + 1


@dataclass
class SyntheticWorld:
    seed: int
    categories: list
    entities: dict          # category -> list of entity tokens
    attributes: list
    values: list            # global value token pool
    facts: dict             # (entity, attribute) -> value token
    vocab: list = field(default_factory=list)
    token_to_id: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.vocab:
            self.vocab = list(SPECIALS) + self.attributes + self.values + [
                e for c in self.categories for e in self.entities[c]]
            self.token_to_id = {t: i for i, t in enumerate(self.vocab)}

    @property
    def all_entities(self):
        return [e for c in self.categories for e in self.entities[c]]

    def category_of(self, entity: str) -> str:
        for c in self.categories:
            if entity in self.entities[c]:
                return c
        raise KeyError(entity)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.token_to_id[t] for t in tokens], dtype=np.intp)

    def similarity(self, anchor_entity: str, option: str) -> float:
        """Constructed semantic similarity in [0, 1]: half weight on shared
        category, half on the fraction of shared attribute values."""
        if option == anchor_entity:
            return 1.0
        same_cat = self.category_of(option) == self.category_of(anchor_entity)
        shared = sum(
            self.facts[(option, a)] == self.facts[(anchor_entity, a)]
            for a in self.attributes) / len(self.attributes)
        return 0.5 * float(same_cat) + 0.5 * shared


def build_world(seed: int, n_categories: int = 6, entities_per_category: int = 10,
                n_attributes: int = 4, n_values: int = 8,
                category_coherence: float = 0.4,
                vocab_budget: int = 512) -> SyntheticWorld:
    """Deterministic world: categories, entities, and a full fact table.

    `category_coherence` is the probability an entity takes its category's
    prototype value for an attribute instead of a random one.
    """
    if min(n_categories, entities_per_category, n_attributes, n_values) < 2:
        raise ValueError("all world dimensions must be >= 2")
    if not 0 <= category_coherence <= 1:
        raise ValueError(f"category_coherence {category_coherence} must lie "
                         "in [0, 1]")
    total_vocab = (len(SPECIALS) + n_attributes + n_values
                   + n_categories * entities_per_category)
    if total_vocab > vocab_budget:
        raise ValueError(f"vocab {total_vocab} exceeds budget {vocab_budget}")

    rng = np.random.default_rng(seed)
    categories = [f"cat{c}" for c in range(n_categories)]
    attributes = [f"attr{a}" for a in range(n_attributes)]
    values = [f"val{v}" for v in range(n_values)]
    entities = {c: [f"e{ci}_{k}" for k in range(entities_per_category)]
                for ci, c in enumerate(categories)}

    facts = {}
    for c in categories:
        prototype = {a: values[rng.integers(n_values)] for a in attributes}
        for e in entities[c]:
            for a in attributes:
                if rng.random() < category_coherence:
                    facts[(e, a)] = prototype[a]
                else:
                    facts[(e, a)] = values[rng.integers(n_values)]
    return SyntheticWorld(seed=seed, categories=categories, entities=entities,
                          attributes=attributes, values=values, facts=facts)


@dataclass
class QuestionItem:
    item_id: str
    stem_tokens: list           # identical across the three variants
    options: list               # exactly 4 entity tokens
    similarities: list          # constructed similarity per option
    correct_index: int | None   # None for the NoCorrect variant
    variant: str
    query_attr: str
    target_value: str

    def __post_init__(self):
        if len(self.options) != 4 or len(self.similarities) != 4:
            raise ValueError("exactly 4 options required")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant}")
        if self.variant == "NoCorrect" and self.correct_index is not None:
            raise ValueError("NoCorrect items carry no correct option")
        if self.variant != "NoCorrect" and self.correct_index not in range(4):
            raise ValueError("Base/Easy items need a correct option index")


@dataclass
class PermutedItem:
    item: QuestionItem
    perm: tuple                 # new position -> original option index
    perm_index: int

    def __post_init__(self):
        if sorted(self.perm) != [0, 1, 2, 3]:
            raise ValueError("permutation must be a bijection on {0,1,2,3}")

    @property
    def options(self):
        return [self.item.options[i] for i in self.perm]

    @property
    def similarities(self):
        return [self.item.similarities[i] for i in self.perm]

    @property
    def correct_index(self):
        if self.item.correct_index is None:
            return None
        return self.perm.index(self.item.correct_index)


def generate_item(world: SyntheticWorld, rng: np.random.Generator,
                  two_hop: bool = False) -> QuestionItem:
    """One Base-variant item; raises if the world can't supply distractors."""
    correct = world.all_entities[rng.integers(len(world.all_entities))]
    attr = world.attributes[rng.integers(len(world.attributes))]
    value = world.facts[(correct, attr)]
    cat = world.category_of(correct)

    # 3 plausible distractors now, plus one spare for the NoCorrect variant.
    # Prefer "near misses": same-category entities that carry the probe value
    # under a different attribute, so rejecting them takes an attribute check
    # rather than a value check.
    pool = [e for e in world.entities[cat]
            if e != correct and world.facts[(e, attr)] != value]
    if len(pool) < 4:
        raise ValueError(f"category {cat} too small to supply distractors "
                         f"for probe ({attr}={value})")
    near = [e for e in pool
            if any(world.facts[(e, a)] == value
                   for a in world.attributes if a != attr)]
    far = [e for e in pool if e not in near]
    take_near = min(3, len(near))
    distractors = [near[i]
                   for i in rng.choice(len(near), size=take_near, replace=False)]
    if take_near < 3:
        distractors += [far[i] for i in
                        rng.choice(len(far), size=3 - take_near, replace=False)]

    if two_hop:
        # name the probe value indirectly: value = fact(carrier, attr2)
        carriers = [(e, a) for e in world.all_entities for a in world.attributes
                    if world.facts[(e, a)] == value and e != correct
                    and e not in distractors]
        if not carriers:
            raise ValueError(f"no 2-hop carrier for value {value}")
        e2, a2 = carriers[rng.integers(len(carriers))]
        stem = [attr, a2, e2, QMARK]
    else:
        stem = [attr, value, QMARK]

    options = distractors + [correct]
    order = rng.permutation(4)
    options = [options[i] for i in order]
    correct_index = int(np.argwhere(order == 3)[0][0])
    sims = [world.similarity(correct, o) for o in options]
    return QuestionItem(
        item_id="_".join(stem[:-1]),
        stem_tokens=stem,
        options=options,
        similarities=sims,
        correct_index=correct_index,
        variant="Base",
        query_attr=attr,
        target_value=value,
    )


def make_variants(base: QuestionItem, world: SyntheticWorld,
                  rng: np.random.Generator) -> dict:
    """Base, Easy, and NoCorrect items sharing the same stem."""
    if base.variant != "Base":
        raise ValueError("variants are derived from a Base item")
    correct = base.options[base.correct_index]
    cat = world.category_of(correct)
    attr, value = base.query_attr, base.target_value

    # "obviously unrelated": different category AND the probe value appears
    # under none of the entity's attributes
    easy_pool = [e for c in world.categories if c != cat
                 for e in world.entities[c]
                 if all(world.facts[(e, a)] != value
                        for a in world.attributes)]
    easy_d = [easy_pool[i] for i in rng.choice(len(easy_pool), size=3, replace=False)]
    easy_options = list(base.options)
    slots = [i for i in range(4) if i != base.correct_index]
    for slot, d in zip(slots, easy_d):
        easy_options[slot] = d
    easy = QuestionItem(
        item_id=base.item_id, stem_tokens=list(base.stem_tokens),
        options=easy_options,
        similarities=[world.similarity(correct, o) for o in easy_options],
        correct_index=base.correct_index, variant="Easy",
        query_attr=attr, target_value=value)

    nc_pool = [e for e in world.entities[cat]
               if e != correct and e not in base.options
               and world.facts[(e, attr)] != value]
    if not nc_pool:
        raise ValueError("no replacement distractor for NoCorrect variant")
    nc_near = [e for e in nc_pool
               if any(world.facts[(e, a)] == value
                      for a in world.attributes if a != attr)]
    pick = nc_near or nc_pool
    replacement = pick[rng.integers(len(pick))]
    nc_options = list(base.options)
    nc_options[base.correct_index] = replacement
    nocorrect = QuestionItem(
        item_id=base.item_id, stem_tokens=list(base.stem_tokens),
        options=nc_options,
        similarities=[world.similarity(correct, o) for o in nc_options],
        correct_index=None, variant="NoCorrect",
        query_attr=attr, target_value=value)

    return {"Base": base, "Easy": easy, "NoCorrect": nocorrect}


def permute_options(item: QuestionItem, seed: int,
                    n_permutations: int = 25) -> list:
    """Uniform answer-order permutations, sampled with replacement from the
    24 orderings of 4 options (n > 24 therefore implies repeats)."""
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_permutations):
        perm = tuple(int(x) for x in rng.permutation(4))
        out.append(PermutedItem(item=item, perm=perm, perm_index=i))
    return out


def render_tokens(p: PermutedItem, length: int = RENDER_LEN) -> list:
    """Prompt token sequence, left-padded to a fixed length; the trailing
    arrow is the answer position."""
    toks = list(p.item.stem_tokens)
    toks.extend(p.options)
    toks.append(ARROW)
    if len(toks) > length:
        raise ValueError(f"rendered length {len(toks)} exceeds {length}")
    return [PAD] * (length - len(toks)) + toks


# -- benchmark assembly ---------------------------------------------------


@dataclass
class Benchmark:
    world: SyntheticWorld
    items: list                 # 3 consecutive variants per stem
    n_permutations: int
    seed: int

    def stems(self):
        return self.items[::3]

    def permutations_for(self, item: QuestionItem) -> list:
        seed = derive_seed(self.seed, "perm", item.item_id, item.variant)
        return permute_options(item, seed, self.n_permutations)


def generate_benchmark(world: SyntheticWorld, n_stems: int, seed: int,
                       two_hop_fraction: float = 0.5,
                       n_permutations: int = 25,
                       max_attempts: int = 100000) -> Benchmark:
    """Deterministic benchmark of n_stems distinct stems x 3 variants."""
    if not 0 <= two_hop_fraction <= 1:
        raise ValueError(f"two_hop_fraction {two_hop_fraction} must lie in "
                         "[0, 1]")
    rng = np.random.default_rng(derive_seed(seed, "items"))
    items = []
    seen = set()
    attempts = 0
    while len(seen) < n_stems:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError(f"could not assemble {n_stems} distinct stems")
        two_hop = rng.random() < two_hop_fraction
        try:
            base = generate_item(world, rng, two_hop=two_hop)
        except ValueError:
            continue
        if base.item_id in seen:
            continue
        try:
            variants = make_variants(base, world, rng)
        except ValueError:
            continue
        seen.add(base.item_id)
        items.extend([variants["Base"], variants["Easy"], variants["NoCorrect"]])
    return Benchmark(world=world, items=items, n_permutations=n_permutations,
                     seed=seed)


# -- JSONL interchange -----------------------------------------------------


def item_to_record(item: QuestionItem, permutations: list) -> dict:
    return {
        "item_id": item.item_id,
        "variant": item.variant,
        "stem_tokens": item.stem_tokens,
        "options": item.options,
        "similarities": item.similarities,
        "correct_index": item.correct_index,
        "query_attr": item.query_attr,
        "target_value": item.target_value,
        "permutations": [list(p.perm) for p in permutations],
    }


def benchmark_jsonl(bench: Benchmark) -> str:
    """The text of benchmark.jsonl: one record per item, keys sorted."""
    return "".join(json.dumps(item_to_record(it, bench.permutations_for(it)),
                              sort_keys=True) + "\n" for it in bench.items)


def write_benchmark_jsonl(bench: Benchmark, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(benchmark_jsonl(bench))

