"""Averaged perceptron: features, training, strategies, persistence."""

import json
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from espunct import tagger
from espunct.corpus import CLASS_ORDER, LabeledUtterance, PunctClass
from espunct.errors import (
    EmptyCorpus,
    IoFailure,
    MissingEnglishData,
    ModelLoadError,
    TargetTooSmall,
    UnconvertedEnglish,
)
from espunct.synthetic import transfer_benchmark
from espunct.tagger import (
    DEFAULT_LABEL_SET,
    FEATURE_TEMPLATES,
    _PREV_LABELS,
    _RowCache,
    Strategy,
    TaggerModel,
    TrainConfig,
    _static_features,
    _word_shape,
    continue_train,
    oversample,
    run_strategy,
    train,
)

from generators import random_labeled_utterance, rule_corpus
from helpers import BAD_MODEL_CHANGES, _feature_list, count_trains, labels, lu


# ---------------------------------------------------------------- features


def test_featurize_mid_token_with_number():
    tokens = ["Hola", "3,5", "qué"]
    feats = set(_feature_list(tokens, 1, "COMMA", [t.lower() for t in tokens]))
    assert feats == {
        "w-2=<s>",
        "w-1=hola",
        "w0=3,5",
        "w+1=qué",
        "w+2=</s>",
        "pre1=3",
        "suf1=5",
        "pre2=3,",
        "suf2=,5",
        "pre3=3,5",
        "suf3=3,5",
        "prev=COMMA",
        "shape=d,d",
        "wb-1=hola|3,5",
        "wb+1=3,5|qué",
    }


def test_featurize_single_token():
    feats = set(_feature_list(["Ok"], 0, "<start>", ["ok"]))
    assert feats == {
        "w-2=<s>",
        "w-1=<s>",
        "w0=ok",
        "w+1=</s>",
        "w+2=</s>",
        "pre1=o",
        "suf1=k",
        "pre2=ok",
        "suf2=ok",
        "first",
        "last",
        "prev=<start>",
        "shape=Xx",
        "wb-1=<s>|ok",
        "wb+1=ok|</s>",
    }


def test_featurize_short_word_skips_long_affixes():
    feats = set(_feature_list(["y", "a"], 0, "<start>", ["y", "a"]))
    assert "pre1=y" in feats
    assert not any(f.startswith(("pre2", "pre3", "suf2", "suf3")) for f in feats)


def test_feature_count_stays_bounded():
    rng = random.Random(0)
    for _ in range(500):
        u = random_labeled_utterance(rng)
        i = rng.randrange(len(u.tokens))
        feats = set(_feature_list(u.tokens, i, "NONE", [t.lower() for t in u.tokens]))
        assert len(feats) <= 20


def test_template_inventory():
    assert len(FEATURE_TEMPLATES) == 17
    assert "prev" in FEATURE_TEMPLATES


def _template_cases():
    """Token lists that reach every template branch, first and last
    positions included."""
    rule = rule_corpus(200, seed=3)
    mixed = next(
        u.tokens for u in rule
        if any(t[0].isupper() for t in u.tokens)
        and any(ch.isdigit() for t in u.tokens for ch in t)
    )
    en = transfer_benchmark(
        4, es_train_size=1, es_test_size=1, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=50,
    ).en
    short = next(u.tokens for u in en if any(len(t) == 2 for t in u.tokens))
    return [mixed, short, ("y", "OK", "3,5", "a"), ("Ok",)]


def _row(weights):
    """A dense row from {label index: weight}."""
    return tuple(weights.get(li, 0.0) for li in range(tagger._WIDTH))


def _sparse(weights):
    """Dense weights as {feature: {label index: weight}} of each row's
    non-zero weights; a row with none becomes {}."""
    return {f: {li: w for li, w in enumerate(row) if w} for f, row in weights.items()}


def test_static_features_match_template_definition():
    cases = _template_cases()
    assert any(len(t) == 1 for case in cases for t in case)
    weights = {}
    training = _RowCache(weights, create=True)
    statics = [_static_features(tokens, training) for tokens in cases]
    # Training made a dense row for every feature but the bigrams.  Mark
    # each row in place; the rows cached before must show the marks.
    for k, row in enumerate(weights.values()):
        row[k % len(row)] = float(k + 1)
    # Predict sums the model's own rows, all-zero ones too, and has none
    # for absent features.
    kept = {}
    for k, (f, row) in enumerate(weights.items()):
        if k % 3:
            kept[f] = tuple(row) if k % 2 else _row({})
    predicting = _RowCache(kept, create=False)
    for tokens, static in zip(cases, statics):
        lowered = [t.lower() for t in tokens]
        assert len(static) == len(tokens)
        fresh = _static_features(tokens, predicting)
        for i in range(len(tokens)):
            for li, prev in enumerate(_PREV_LABELS):
                feats = _feature_list(tokens, i, prev, lowered)
                for cache, positions, want in (
                    (training, static, [weights[f] for f in feats[:-2]]),
                    (predicting, fresh, [kept[f] for f in feats[:-2] if f in kept]),
                ):
                    head, tail, bigrams = positions[i]
                    rows = list(head + cache.prev[li] + tail)
                    assert rows == want, (tokens, i, prev)
                    assert all(got is row for got, row in zip(rows, want)), (tokens, i, prev)
                    assert bigrams == tuple(feats[-2:]), (tokens, i, prev)


def test_a_mistake_gets_the_rows_of_its_features():
    # Gold labels the decoder keeps missing.  Each on_mistake call must
    # get the phase's own rows of that position's features, in template
    # order, and may have made only the two wb rows.
    cases = _template_cases()
    avg = tagger._Averager({})
    weights = avg.weights
    cache = _RowCache(weights, create=True)
    calls = []

    def on_mistake(rows, gold, guess):
        calls.append((rows, gold, guess, set(weights)))
        avg.mistake(rows, gold, guess, tick=1)

    made = found = 0
    for epoch in range(3):
        for tokens in cases:
            gold = [(3 * i + epoch + len(tokens)) % tagger._WIDTH for i in range(len(tokens))]
            _static_features(tokens, cache)
            known = set(weights)
            calls.clear()
            out = tagger._decode(cache, tokens, gold, on_mistake)
            lowered = [t.lower() for t in tokens]
            missed = [i for i in range(len(tokens)) if out[i] != gold[i]]
            assert len(calls) == len(missed)
            for i, (rows, g, guess, keys) in zip(missed, calls):
                prev = _PREV_LABELS[out[i - 1] if i else -1]
                feats = _feature_list(tokens, i, prev, lowered)
                want = [weights[f] for f in feats]
                assert len(rows) == len(want), (tokens, i)
                assert all(got is row for got, row in zip(rows, want)), (tokens, i)
                assert (g, guess) == (gold[i], out[i])
                assert keys - known <= set(feats[-2:]), (tokens, i)
                made += len(keys - known)
                found += 2 - len(keys - known)
                known = keys
    assert made and found


def _reference_predict(model, tokens):
    """The greedy decoder written directly against _feature_list, where
    each feature adds only its non-zero weights."""
    weights = _sparse(model.weights)
    lowered = [t.lower() for t in tokens]
    prev = "<start>"
    out = []
    for i in range(len(tokens)):
        scores = [0.0] * len(DEFAULT_LABEL_SET)
        for f in _feature_list(tokens, i, prev, lowered):
            for li, w in weights.get(f, {}).items():
                scores[li] += w
        best = 0
        for li in range(1, len(scores)):
            if scores[li] > scores[best]:
                best = li
        prev = DEFAULT_LABEL_SET[best]
        out.append(PunctClass[prev])
    return out


def test_predict_matches_reference_decoder():
    bench = transfer_benchmark(
        2, es_train_size=80, es_test_size=60, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=60,
    )
    model = train(bench.es_train + bench.en, TrainConfig(epochs=2, seed=0))
    grown = continue_train(model, bench.es_train, TrainConfig(epochs=1, seed=1))
    for m in (model, grown):
        for u in bench.es_test + bench.en:
            assert m.predict(u.tokens) == _reference_predict(m, u.tokens)


def test_scores_sum_in_template_order():
    # 2**53 + 1 rounds back to 2**53, so label 1 scores 0.0 when the row
    # holding 1.0 is summed before the row holding -2**53, and 1.0 when
    # it is summed after it.  Label 0 scores 0.5 either way.
    big = 2.0**53
    tokens = ["Hola"]
    feats = _feature_list(tokens, 0, "<start>", ["hola"])
    assert len(feats) == len(set(feats)) == len(FEATURE_TEMPLATES)
    for j in range(1, len(feats)):
        for k in range(j + 1, len(feats)):
            model = TaggerModel(
                weights={
                    feats[0]: _row({0: 0.5, 1: big}),
                    feats[j]: _row({1: 1.0}),
                    feats[k]: _row({1: -big}),
                }
            )
            assert model.predict(tokens) == [PunctClass.NONE], (feats[j], feats[k])


def test_zero_and_signed_zero_weights_predict_as_reference():
    # Dense rows add 0.0 for every label a feature lacks; explicit 0.0 and
    # -0.0 weights, next to the 2**53 rows above, must not move a score.
    big = 2.0**53
    names = DEFAULT_LABEL_SET
    tokens = ["Hola", "qué", "tal"]
    lowered = [t.lower() for t in tokens]
    feats = _feature_list(tokens, 0, "<start>", lowered)
    reachable = {
        f
        for i in range(len(tokens))
        for prev in _PREV_LABELS
        for f in _feature_list(tokens, i, prev, lowered)
    }
    zeros = {
        f: {name: (-0.0 if (n + li) % 2 else 0.0) for li, name in enumerate(names)}
        for n, f in enumerate(sorted(reachable))
    }
    for j, k in ((1, 2), (3, len(feats) - 1), (len(feats) - 3, len(feats) - 2)):
        weights = {f: dict(row) for f, row in zeros.items()}
        weights[feats[0]].update({names[0]: 0.5, names[1]: big, names[2]: -0.0})
        weights[feats[j]].update({names[1]: 1.0})
        weights[feats[k]].update({names[1]: -big, names[3]: 0.0})
        obj = {**TaggerModel().to_json_dict(), "weights": weights}
        model = TaggerModel.from_json_dict(json.loads(json.dumps(obj)))
        assert model.predict(tokens) == _reference_predict(model, tokens)
        assert model.predict(tokens)[0] == PunctClass.NONE, (feats[j], feats[k])


def test_every_label_fits_the_decoders_row_width():
    # _decode sums a fixed number of slots per row; a label past them
    # would fail to unpack, or be left out of the scores.
    assert len(CLASS_ORDER) == len(DEFAULT_LABEL_SET) == tagger._WIDTH
    for li, label in enumerate(CLASS_ORDER):
        model = TaggerModel(weights={"w0=a": _row({li: 1.0})})
        assert model.predict(["a"]) == [label]
        trained = train([LabeledUtterance(("a",), (label,))], TrainConfig(epochs=1))
        assert trained.predict(["a"]) == [label]


def _served_model_and_utterances():
    bench = transfer_benchmark(
        5, es_train_size=60, es_test_size=40, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=40,
    )
    model = train(bench.es_train + bench.en, TrainConfig(epochs=2, seed=0))
    return TaggerModel.from_json_dict(model.to_json_dict()), bench.es_test + bench.en


def test_predict_cache_is_exact_when_cleared_and_refilled(monkeypatch):
    monkeypatch.setattr(tagger, "_MAX_CACHED_TYPES", 12)
    model, utterances = _served_model_and_utterances()
    sizes = []
    for u in utterances:
        assert model.predict(u.tokens) == _reference_predict(model, u.tokens)
        sizes.append(len(model._rows.entries))
    assert max(sizes) <= 12
    cleared = next(k for k in range(1, len(sizes)) if sizes[k] < sizes[k - 1])
    assert sizes[0] > 0 and 12 in sizes[cleared:], sizes


def test_long_tokens_are_not_cached():
    model, utterances = _served_model_and_utterances()
    long = "a" * (tagger._MAX_CACHED_CHARS + 1)
    tokens = list(utterances[0].tokens) + [long, long]
    assert model.predict(tokens) == _reference_predict(model, tokens)
    assert long not in model._rows.entries
    assert utterances[0].tokens[0] in model._rows.entries


def test_threads_share_one_fresh_model():
    model, utterances = _served_model_and_utterances()
    want = [_reference_predict(model, u.tokens) for u in utterances]
    assert model._rows is None
    start = threading.Barrier(4)

    def run():
        start.wait(timeout=30)
        return [model.predict(u.tokens) for u in utterances]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 4


def test_replacing_weights_drops_the_predict_cache():
    model, utterances = _served_model_and_utterances()
    other = train(utterances[:30], TrainConfig(epochs=1, seed=3))
    before = [model.predict(u.tokens) for u in utterances]
    model.weights = other.weights
    after = [model.predict(u.tokens) for u in utterances]
    assert after == [_reference_predict(other, u.tokens) for u in utterances]
    assert after != before


def test_predict_never_writes_to_the_model(tmp_path):
    model, utterances = _served_model_and_utterances()
    assert all(any(row) for row in model.weights.values())
    model.save(tmp_path / "before.json")
    rows = dict(model.weights)
    for u in utterances:
        model.predict(u.tokens)
        model.predict([t.upper() + "x" for t in u.tokens])
    assert model.weights.keys() == rows.keys()
    assert all(model.weights[f] is row for f, row in rows.items())
    model.save(tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_model_pickles_after_predict():
    model, utterances = _served_model_and_utterances()
    want = [model.predict(u.tokens) for u in utterances]
    back = pickle.loads(pickle.dumps(model))
    assert back == model and back._rows is None
    assert [back.predict(u.tokens) for u in utterances] == want


def test_trained_models_hold_no_empty_row():
    bench = transfer_benchmark(
        6, es_train_size=60, es_test_size=1, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=40,
    )
    model = train(bench.es_train, TrainConfig(epochs=2, seed=0))
    grown = continue_train(model, bench.en, TrainConfig(epochs=1, seed=1))
    for m in (model, grown):
        assert m.weights
        for row in m.weights.values():
            assert type(row) is tuple and len(row) == tagger._WIDTH and any(row), row


# ---------------------------------------------------------------- decoding


def test_zero_weights_predict_all_none():
    model = TaggerModel()
    got = model.predict(["hola", "qué", "tal"])
    assert got == [PunctClass.NONE] * 3


def test_predict_rejects_empty_input():
    with pytest.raises(ValueError):
        TaggerModel().predict([])


def test_forced_weights_drive_prediction():
    model = TaggerModel()
    li = DEFAULT_LABEL_SET.index("PERIOD")
    model.weights["last"] = _row({li: 5.0})
    assert model.predict(["a", "b"]) == [PunctClass.NONE, PunctClass.PERIOD]


# ------------------------------------------------------- averaging oracle


def _naive_train(corpus, config):
    """Reference trainer that materializes a weight snapshot after every
    utterance and averages them directly.  All training weights are
    integer-valued, so float equality with the lazy version is exact."""
    index = {name: li for li, name in enumerate(DEFAULT_LABEL_SET)}
    nlabels = len(DEFAULT_LABEL_SET)
    weights = {}
    sums = {}
    rng = random.Random(config.seed)
    order = list(range(len(corpus)))
    ticks = 0
    for _ in range(config.epochs):
        if config.shuffle:
            rng.shuffle(order)
        for ci in order:
            u = corpus[ci]
            ticks += 1
            prev = "<start>"
            lowered = [t.lower() for t in u.tokens]
            for i in range(len(u.tokens)):
                feats = sorted(set(_feature_list(u.tokens, i, prev, lowered)))
                scores = [0.0] * nlabels
                for f in feats:
                    for li, w in weights.get(f, {}).items():
                        scores[li] += w
                guess = 0
                for li in range(1, nlabels):
                    if scores[li] > scores[guess]:
                        guess = li
                gold = index[u.labels[i].name]
                if guess != gold:
                    for f in feats:
                        row = weights.setdefault(f, {})
                        row[gold] = row.get(gold, 0.0) + 1.0
                        row[guess] = row.get(guess, 0.0) - 1.0
                prev = DEFAULT_LABEL_SET[guess]
            for f, row in weights.items():
                srow = sums.setdefault(f, {})
                for li, w in row.items():
                    srow[li] = srow.get(li, 0.0) + w
    out = {}
    for f, row in sums.items():
        arow = {li: s / ticks for li, s in row.items() if s / ticks != 0.0}
        if arow:
            out[f] = arow
    return out


@pytest.mark.parametrize("seed,shuffle", [(0, True), (7, True), (3, False)])
def test_averaged_weights_match_snapshot_reference(seed, shuffle):
    corpus = rule_corpus(40, seed=seed + 100)
    config = TrainConfig(epochs=3, seed=seed, shuffle=shuffle)
    model = train(corpus, config)
    assert _sparse(model.weights) == _naive_train(corpus, config)


def _snapshot_continue(initial, corpus, config):
    """Reference continuation phase from float weights.

    Decodes by summing each weight of _feature_list in its order and
    updates after every mistake.  After each utterance every weight the
    phase has changed holds one more snapshot: a weight changed during
    that utterance starts a new run of snapshots at its new value.  A
    weight's average sums ticks * value over its runs in tick order (the
    products the lazy averager forms), and a weight the phase never
    changed keeps its value."""
    index = {name: li for li, name in enumerate(DEFAULT_LABEL_SET)}
    nlabels = len(DEFAULT_LABEL_SET)
    weights = _sparse(initial)
    runs = {}
    rng = random.Random(config.seed)
    order = list(range(len(corpus)))
    ticks = 0
    for _ in range(config.epochs):
        if config.shuffle:
            rng.shuffle(order)
        for ci in order:
            u = corpus[ci]
            ticks += 1
            changed = {}
            prev = "<start>"
            lowered = [t.lower() for t in u.tokens]
            for i in range(len(u.tokens)):
                feats = _feature_list(u.tokens, i, prev, lowered)
                scores = [0.0] * nlabels
                for f in feats:
                    for li, w in weights.get(f, {}).items():
                        scores[li] += w
                guess = 0
                for li in range(1, nlabels):
                    if scores[li] > scores[guess]:
                        guess = li
                gold = index[u.labels[i].name]
                if guess != gold:
                    for f in feats:
                        row = weights.setdefault(f, {})
                        for li, step in ((gold, 1.0), (guess, -1.0)):
                            changed.setdefault((f, li), row.get(li, 0.0))
                            row[li] = row.get(li, 0.0) + step
                prev = DEFAULT_LABEL_SET[guess]
            for key, run in runs.items():
                if key not in changed:
                    run[-1][1] += 1
            for (f, li), before in changed.items():
                run = runs.setdefault((f, li), [[before, ticks - 1]])
                run.append([weights[f][li], 1])
    out = {}
    for f, row in weights.items():
        arow = {}
        for li, value in row.items():
            if (f, li) in runs:
                total = 0.0
                for held, count in runs[(f, li)]:
                    total += count * held
                value = total / ticks
            if value != 0.0:
                arow[li] = value
        if arow:
            out[f] = arow
    return out


def _with_cancelling_offset(weights, corpus, big):
    """weights plus big on every label of each prev= row and minus big on
    every label of each shape= row that corpus reaches.  Each position sums
    one prev= row and one shape= row, so scores are unchanged in exact
    arithmetic, but how they round depends on the order rows are summed."""
    out = dict(weights)
    offsets = [("prev=" + name, big) for name in _PREV_LABELS]
    offsets += [("shape=" + s, -big) for s in {_word_shape(t) for u in corpus for t in u.tokens}]
    for f, step in offsets:
        out[f] = tuple(w + step for w in out.get(f, _row({})))
    return out


@pytest.mark.parametrize("offset", [False, True], ids=["trained", "offset"])
@pytest.mark.parametrize("seed,shuffle", [(0, True), (1, True), (2, False), (3, False)])
def test_continued_weights_match_snapshot_reference(seed, shuffle, offset):
    bench = transfer_benchmark(
        seed, es_train_size=50, es_test_size=1, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=40,
    )
    model = train(bench.es_train, TrainConfig(epochs=2, seed=seed))
    assert any(w != int(w) for row in model.weights.values() for w in row)
    if offset:
        model.weights = _with_cancelling_offset(model.weights, bench.en, 2.0**52)
    config = TrainConfig(epochs=2, seed=seed + 1, shuffle=shuffle)
    grown = continue_train(model, bench.en, config)
    assert _sparse(grown.weights) == _snapshot_continue(model.weights, bench.en, config)


# ----------------------------------------------------------- learnability


def _micro_f1(model, test):
    tp = pred_punct = gold_punct = 0
    for u in test:
        pred = model.predict(u.tokens)
        for g, p in zip(u.labels, pred):
            if p is not PunctClass.NONE:
                pred_punct += 1
            if g is not PunctClass.NONE:
                gold_punct += 1
                if g is p:
                    tp += 1
    precision = tp / pred_punct if pred_punct else 0.0
    recall = tp / gold_punct if gold_punct else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_learns_rule_governed_corpus():
    corpus = rule_corpus(800, seed=5)
    model = train(corpus[:600], TrainConfig(epochs=5, seed=0))
    assert _micro_f1(model, corpus[600:]) >= 0.95


def test_learns_final_period_rule():
    rng = random.Random(11)
    words = [f"palabra{i}" for i in range(60)]

    def sample(n):
        toks = tuple(rng.choice(words) for _ in range(n))
        labs = (PunctClass.NONE,) * (n - 1) + (PunctClass.PERIOD,)
        return lu(" ".join(toks), " ".join(
            "P" if j == n - 1 else "N" for j in range(n)))

    corpus = [sample(rng.randint(2, 8)) for _ in range(400)]
    model = train(corpus, TrainConfig(epochs=2, seed=0))
    assert model.predict(["hola", "buenos", "días"]) == list(labels("N N P"))

    hit = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        toks = [rng.choice(words) for _ in range(n)]
        pred = model.predict(toks)
        want = [PunctClass.NONE] * (n - 1) + [PunctClass.PERIOD]
        hit += pred == want
    assert hit / 500 >= 0.99


def test_training_is_deterministic():
    corpus = rule_corpus(120, seed=2)
    a = train(corpus, TrainConfig(epochs=3, seed=9))
    b = train(corpus, TrainConfig(epochs=3, seed=9))
    c = train(corpus, TrainConfig(epochs=3, seed=10))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    assert a.weights != c.weights


def test_train_rejects_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train([])
    with pytest.raises(EmptyCorpus):
        continue_train(TaggerModel(), [])


def test_config_rejects_bad_epochs():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# ------------------------------------------------------------ persistence


def test_save_load_round_trip(tmp_path):
    corpus = rule_corpus(60, seed=1)
    model = train(corpus, TrainConfig(epochs=2, seed=0))
    path = tmp_path / "model.json"
    model.save(path)
    back = TaggerModel.load(path)
    assert back.weights == model.weights
    assert back.training_log == model.training_log
    probe = ["bueno", "quiero", "ayuda"]
    assert back.predict(probe) == model.predict(probe)


def test_save_load_save_is_byte_identical(tmp_path):
    bench = transfer_benchmark(
        7, es_train_size=60, es_test_size=1, ldc_size=1, pool_good=1,
        pool_alien=1, en_size=40,
    )
    model = train(bench.es_train, TrainConfig(epochs=2, seed=0))
    grown = continue_train(model, bench.en, TrainConfig(epochs=1, seed=1))
    for name, m in (("trained", model), ("continued", grown)):
        first, second = tmp_path / f"{name}-1.json", tmp_path / f"{name}-2.json"
        m.save(first)
        TaggerModel.load(first).save(second)
        assert second.read_bytes() == first.read_bytes(), name


def test_explicit_zero_weights_and_empty_rows_load_and_save_back_without_them(tmp_path):
    # A hand-written file may list 0.0 and -0.0 weights and empty rows.
    # They load as zeros, which change no score, and save leaves them out;
    # a row with no non-zero weight is written back as {}.
    tokens = ["hola", "qué", "tal"]
    path = tmp_path / "hand.json"
    obj = TaggerModel().to_json_dict()
    obj["weights"] = {
        "w0=hola": {"NONE": 0.0, "COMMA": 1.5, "PERIOD": -0.0},
        "w0=tal": {"PERIOD": 2.0, "NONE": -0.0},
        "first": {"NONE": -0.0, "COMMA": 0.0},
        "last": {},
        "prev=COMMA": {"NONE": 0.0, "OPEN_QUESTION": -0.0},
    }
    path.write_text(json.dumps(obj), encoding="utf-8")
    model = TaggerModel.load(path)
    want = [PunctClass.COMMA, PunctClass.NONE, PunctClass.PERIOD]
    assert model.predict(tokens) == _reference_predict(model, tokens) == want
    model.save(path)
    assert json.loads(path.read_text(encoding="utf-8"))["weights"] == {
        "w0=hola": {"COMMA": 1.5},
        "w0=tal": {"PERIOD": 2.0},
        "first": {},
        "last": {},
        "prev=COMMA": {},
    }
    assert TaggerModel.load(path).predict(tokens) == want


def test_save_unwritable_path():
    with pytest.raises(IoFailure):
        TaggerModel().save("/nonexistent-dir/model.json")


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelLoadError):
        TaggerModel.load(tmp_path / "absent.json")


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "v99.json"
    obj = TaggerModel().to_json_dict()
    obj["format_version"] = 99
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"format_version": 1}', encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


def test_load_rejects_unknown_label_in_weights(tmp_path):
    path = tmp_path / "alien.json"
    obj = TaggerModel().to_json_dict()
    obj["weights"] = {"w0=hola": {"SEMICOLON": 1.0}}
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


@pytest.mark.parametrize("case", sorted(BAD_MODEL_CHANGES))
def test_load_rejects_unusable_model(tmp_path, case):
    path = tmp_path / f"{case}.json"
    obj = {**TaggerModel().to_json_dict(), **BAD_MODEL_CHANGES[case]}
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ModelLoadError):
        TaggerModel.load(path)


# -------------------------------------------------------- continue_train


def test_continue_train_keeps_untouched_weights_verbatim():
    first = [lu("hola buenos días", "N N P") for _ in range(30)]
    second = [lu("ya veremos mañana", "N N P") for _ in range(30)]
    model = train(first, TrainConfig(epochs=3, seed=0))
    before = dict(model.weights)

    grown = continue_train(model, second, TrainConfig(epochs=3, seed=1))
    # the input model is untouched
    assert model.weights == before

    new_words = {"ya", "veremos", "mañana"}
    stale = [
        f for f in before
        if f.startswith("w0=") and f.removeprefix("w0=") not in new_words
    ]
    assert stale
    for f in stale:
        assert grown.weights[f] == before[f]


def test_continue_train_appends_to_log():
    model = train(rule_corpus(20, seed=0), TrainConfig(epochs=1, seed=0),
                  data_tag="es")
    grown = continue_train(model, rule_corpus(10, seed=1),
                           TrainConfig(epochs=2, seed=3), data_tag="en")
    assert [e["data"] for e in grown.training_log] == ["es", "en"]
    assert grown.training_log[1] == {
        "data": "en", "epochs": 2, "seed": 3, "size": 10,
    }
    assert len(model.training_log) == 1


# -------------------------------------------------------------- strategies


class _RecordingBackend:
    def __init__(self):
        self.calls = []

    def train(self, corpus, config, data_tag):
        self.calls.append(("train", data_tag, len(corpus)))
        return f"model-after-{data_tag}"

    def continue_train(self, model, corpus, config, data_tag):
        self.calls.append(("continue", data_tag, len(corpus)))
        return f"{model}+{data_tag}"


def test_strategy_call_orders():
    es = rule_corpus(6, seed=0)
    en = rule_corpus(4, seed=1)

    b = _RecordingBackend()
    run_strategy(Strategy.ES_ONLY, es, None, backend=b)
    assert b.calls == [("train", "es", 6)]

    b = _RecordingBackend()
    got = run_strategy(Strategy.ES_THEN_EN, es, en, backend=b)
    assert b.calls == [("train", "es", 6), ("continue", "en", 4)]
    assert got == "model-after-es+en"

    b = _RecordingBackend()
    run_strategy(Strategy.EN_THEN_ES, es, en, backend=b)
    assert b.calls == [("train", "en", 4), ("continue", "es", 6)]

    b = _RecordingBackend()
    run_strategy(Strategy.JOINT, es, en, backend=b)
    assert b.calls == [("train", "joint-es-en", 10)]


def test_strategy_accepts_string_names():
    b = _RecordingBackend()
    run_strategy("ES_ONLY", rule_corpus(3, seed=0), None, backend=b)
    assert b.calls == [("train", "es", 3)]


def test_es_only_ignores_english_entirely():
    es = rule_corpus(50, seed=0)
    en = rule_corpus(30, seed=1)
    config = TrainConfig(epochs=2, seed=0)
    without = run_strategy(Strategy.ES_ONLY, es, None, config)
    with_en = run_strategy(Strategy.ES_ONLY, es, en, config)
    assert json.dumps(without.to_json_dict(), sort_keys=True) == json.dumps(
        with_en.to_json_dict(), sort_keys=True
    )


def test_joint_mixes_and_shuffles_with_config_seed():
    es = rule_corpus(30, seed=0)
    en = rule_corpus(20, seed=1)
    config = TrainConfig(epochs=2, seed=4)
    model = run_strategy(Strategy.JOINT, es, en, config)
    assert model.training_log == [
        {"data": "joint-es-en", "epochs": 2, "seed": 4, "size": 50}
    ]

    mixed = list(es) + list(en)
    random.Random(config.seed).shuffle(mixed)
    direct = train(mixed, config, data_tag="joint-es-en")
    assert model.weights == direct.weights


def test_run_strategy_without_backend_trains_fresh(monkeypatch, tmp_path):
    calls = count_trains(monkeypatch, tmp_path / "trains.log")
    es = rule_corpus(10, seed=0)
    config = TrainConfig(epochs=1, seed=0)
    a = run_strategy(Strategy.ES_ONLY, es, None, config)
    b = run_strategy(Strategy.ES_ONLY, es, None, config)
    assert calls() == ["es", "es"]
    assert a is not b


def test_strategy_data_requirements():
    es = rule_corpus(5, seed=0)
    unconverted = [lu("yes thanks", "N P"), lu("ok how are you", "C N N CQ")]
    with pytest.raises(EmptyCorpus):
        run_strategy(Strategy.ES_ONLY, [], None)
    assert run_strategy(Strategy.ES_ONLY, es, unconverted).weights
    for s in (Strategy.ES_THEN_EN, Strategy.EN_THEN_ES, Strategy.JOINT):
        with pytest.raises(MissingEnglishData):
            run_strategy(s, es, None)
        with pytest.raises(MissingEnglishData):
            run_strategy(s, es, [])
        with pytest.raises(UnconvertedEnglish):
            run_strategy(s, es, unconverted)


# -------------------------------------------------------------- oversample


def test_oversample_balances_copies():
    corpus = rule_corpus(7, seed=0)
    out = oversample(corpus, 24, seed=0)
    assert len(out) == 24
    counts = {}
    for u in out:
        counts[id(u)] = counts.get(id(u), 0) + 1
    assert set(counts.values()) <= {3, 4}
    assert len(counts) == 7


def test_oversample_exact_multiple_is_a_permutation_of_copies():
    corpus = rule_corpus(5, seed=1)
    out = oversample(corpus, 10, seed=2)
    counts = {}
    for u in out:
        counts[id(u)] = counts.get(id(u), 0) + 1
    assert all(c == 2 for c in counts.values())


def test_oversample_deterministic():
    corpus = rule_corpus(6, seed=3)
    assert oversample(corpus, 20, seed=5) == oversample(corpus, 20, seed=5)
    assert oversample(corpus, 20, seed=5) != oversample(corpus, 20, seed=6)


def test_oversample_errors():
    corpus = rule_corpus(5, seed=0)
    with pytest.raises(TargetTooSmall):
        oversample(corpus, 4, seed=0)
    with pytest.raises(EmptyCorpus):
        oversample([], 3, seed=0)
