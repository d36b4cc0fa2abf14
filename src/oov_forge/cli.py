"""Command-line front end.

    oov-forge prepare   <corpus> <embeddings> <out_dir> [--min-count N]
    oov-forge train     <prepared_dir> [--steps N --k-max K --seed S --no-morph --out PATH]
    oov-forge adapt     <checkpoint> <target_corpus> [--source-dir DIR --finetune ...]
    oov-forge infer     --checkpoint PATH --word W --contexts-file PATH --method M
    oov-forge eval      <benchmark_tsv> --embeddings PATH --methods a,b,c [...]
    oov-forge neighbors --embeddings PATH --word W [--top N]

Exit codes: 0 success, 2 ingestion or format, 3 training, 4 adaptation,
5 inference, 6 evaluation, 1 unexpected fault. A typed error carries its code
(errors.py); other package errors take the code of the failing command
(prepare 2, train 3, adapt 4, infer and neighbors 5), and eval reports every
failure as 6. Flags override config-file values, which override defaults;
a config key the command does not read is a format error. OOVFORGE_SEED
seeds every RNG when no --seed is given. Every artifact written embeds the
options that produced it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import ExitStack
from itertools import chain
from pathlib import Path

import numpy as np

from . import baselines
from .adaptation import AdaptConfig, adapt
from .container import atomic_open, config_value
from .corpus import (DEFAULT_MIN_COUNT, STRIP_CHARS, EmbeddingTable,
                     SentenceStore, Vocabulary, contexts_of, format_vector,
                     load_embeddings, prepare_corpus, read_text)
from .episode import (MASK_TOKEN, decode_context, eligible_targets,
                      episode_from_masked, sample_episodes, split_targets)
from .errors import (AdaptationError, EvaluationError, FormatError,
                     InferenceError, IngestionError, OovForgeError)
from .evaluation import (evaluate_method, load_benchmark_tsv, mask_contexts,
                         nearest_neighbors)
from .model import HiceConfig, HiceModel
from .training import (TrainConfig, load_checkpoint, save_checkpoint,
                       train)

ENV_SEED = "OOVFORGE_SEED"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_config_file(path) -> dict[str, str]:
    """Line-oriented 'key = value' config. A line whose first non-blank
    character is '#' is a comment; elsewhere '#' is part of the value."""
    out = {}
    for lineno, line in enumerate(read_text(path, "config").splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise IngestionError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def read_config(args) -> dict[str, str]:
    """The ``--config`` file's settings; a key the command does not read is
    a FormatError."""
    config = load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(config).difference(getattr(args, "config_keys", ())))
    if unknown:
        raise FormatError(f"{args.config}: {args.command} reads no setting "
                          f"{unknown[0]!r}; it reads {', '.join(sorted(args.config_keys))}")
    return config


def write_config_file(path, config: dict[str, str]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for key in sorted(config):
            fh.write(f"{key} = {config[key]}\n")


def effective(args, name: str, default):
    """Flag > config file > environment (seed only) > default. A config or
    environment value not of the default's type is a FormatError."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    file_cfg = getattr(args, "_file_config", {})
    if name in file_cfg:
        return config_value(file_cfg, name, type(default))
    if name == "seed" and os.environ.get(ENV_SEED):
        return config_value(os.environ, ENV_SEED, type(default))
    return default


# flag -> (config dataclass, field): the one declaration of each train and
# adapt setting; the field's default gives the flag's type and default
TRAIN_SETTINGS = {
    "steps": (TrainConfig, "steps"),
    "batch": (TrainConfig, "batch_episodes"),
    "lr": (TrainConfig, "learning_rate"),
    "k_max": (TrainConfig, "k_max"),
    "val_every": (TrainConfig, "validation_every"),
    "patience": (TrainConfig, "patience"),
    "seed": (TrainConfig, "seed"),
    "heads": (HiceConfig, "n_heads"),
}
ADAPT_SETTINGS = {
    "alpha": (AdaptConfig, "alpha"),
    "beta": (AdaptConfig, "beta"),
    "steps": (AdaptConfig, "adapt_steps"),
    "min_count": (AdaptConfig, "target_min_count"),
    "seed": (AdaptConfig, "seed"),
}


def add_settings(parser, settings: dict) -> None:
    for flag, (cls, field) in settings.items():
        parser.add_argument("--" + flag.replace("_", "-"),
                            type=type(getattr(cls, field)), default=None)


def resolve(args, settings: dict) -> dict:
    """Each setting's value by flag name, resolved by ``effective``."""
    return {flag: effective(args, flag, getattr(cls, field))
            for flag, (cls, field) in settings.items()}


def config_fields(cls, settings: dict, values: dict) -> dict:
    """The resolved values of the settings that fill fields of ``cls``."""
    return {field: values[flag] for flag, (c, field) in settings.items() if c is cls}


def run_config_dict(command: str, pairs: dict) -> dict[str, str]:
    return {"command": command, **{key: str(value) for key, value in pairs.items()}}


def config_header(run_cfg: dict[str, str]) -> str:
    """The run config as the ``#`` comment lines that head a CSV report."""
    return "".join(f"# {k} = {run_cfg[k]}\n" for k in sorted(run_cfg))


# ---------------------------------------------------------------------------
# prepared-directory artifacts
# ---------------------------------------------------------------------------

VOCAB_FILE = "vocab.tsv"
SENTENCES_FILE = "sentences.txt"
SPLIT_FILE = "split.txt"
RUN_CONFIG_FILE = "run_config.txt"


def write_prepared(out_dir: Path, vocab: Vocabulary, store: SentenceStore, table: EmbeddingTable,
                   run_cfg: dict[str, str]) -> tuple[list[str], list[str]]:
    """Write the four files of a prepared directory, with the training
    targets and split of ``split_targets``; no file is replaced until every
    write has succeeded."""
    out_dir.mkdir(parents=True, exist_ok=True)
    train_words, val_words = split_targets(vocab, store, table)
    eligible = set(train_words + val_words)
    with ExitStack() as stack:
        vocab_fh, sent_fh, split_fh = (
            stack.enter_context(atomic_open(out_dir / name, "w", encoding="utf-8"))
            for name in (VOCAB_FILE, SENTENCES_FILE, SPLIT_FILE))
        for i, word in enumerate(vocab.words):
            vocab_fh.write(f"{word}\t{vocab.counts[i]}\t{int(vocab.stop_flags[i])}\t"
                           f"{int(word in eligible)}\n")
        tokens, offsets = store.tokens.tolist(), store.offsets.tolist()
        for lo, hi in zip(offsets, offsets[1:]):
            sent_fh.write(" ".join(map(str, tokens[lo:hi])) + "\n")
        for w in sorted(train_words):
            split_fh.write(f"{w}\ttrain\n")
        for w in sorted(val_words):
            split_fh.write(f"{w}\tval\n")
        for fh in (vocab_fh, sent_fh, split_fh):
            fh.flush()  # a full disk shows here, before any file is renamed
        write_config_file(out_dir / RUN_CONFIG_FILE, run_cfg)
    return train_words, val_words


def load_prepared(prepared_dir) -> tuple[Vocabulary, SentenceStore, dict[str, str]]:
    prepared_dir = Path(prepared_dir)
    run_cfg = load_config_file(prepared_dir / RUN_CONFIG_FILE)
    min_count = config_value(run_cfg, "min_count", int, str(DEFAULT_MIN_COUNT))
    words, counts, stops, seen = [], [], [], set()
    vocab_lines = read_text(prepared_dir / VOCAB_FILE, "prepared").splitlines()
    for lineno, line in enumerate(vocab_lines, start=1):
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"{VOCAB_FILE}: line {lineno}: expected 4 fields")
        try:
            counts.append(int(parts[1]))
        except ValueError:
            raise FormatError(f"{VOCAB_FILE}: line {lineno}: non-integer count") from None
        if counts[-1] < 1:
            raise FormatError(f"{VOCAB_FILE}: line {lineno}: count below 1")
        if not {parts[2], parts[3]} <= {"0", "1"}:
            raise FormatError(f"{VOCAB_FILE}: line {lineno}: stop and eligible flags "
                              "must be 0 or 1")
        if parts[0] in seen:
            raise FormatError(f"{VOCAB_FILE}: line {lineno}: repeated word {parts[0]!r}")
        seen.add(parts[0])
        words.append(parts[0])
        stops.append(parts[2] == "1")
    vocab = Vocabulary(words, counts, stops, min_count)
    lines = [line.split() for line in
             read_text(prepared_dir / SENTENCES_FILE, "prepared").splitlines()]
    offsets = np.zeros(len(lines) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, lines), dtype=np.intp, count=len(lines)), out=offsets[1:])

    def out_of_range(lineno: int) -> FormatError:
        return FormatError(f"{SENTENCES_FILE}: line {lineno}: token id out of range "
                           f"[0, {len(words)})")

    try:
        tokens = np.fromiter(map(int, chain.from_iterable(lines)), dtype=np.int64,
                             count=int(offsets[-1]))
    except (ValueError, OverflowError):  # the first line that is not ids in range
        for lineno, line in enumerate(lines, start=1):
            try:
                ids = [int(t) for t in line]
            except ValueError:
                raise FormatError(f"{SENTENCES_FILE}: line {lineno}: "
                                  "non-integer token") from None
            if ids and (min(ids) < 0 or max(ids) >= len(words)):
                raise out_of_range(lineno) from None
        raise
    del lines  # the token strings are freed before the index is built
    bad = np.flatnonzero((tokens < 0) | (tokens >= len(words)))
    if bad.size:
        raise out_of_range(int(np.searchsorted(offsets, bad[0], side="right")))
    return vocab, SentenceStore(tokens, offsets, vocab), run_cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    min_count = effective(args, "min_count", DEFAULT_MIN_COUNT)
    vocab, store = prepare_corpus(args.corpus, min_count=min_count)
    table = load_embeddings(args.embeddings)
    run_cfg = run_config_dict("prepare", {
        "corpus": args.corpus,
        "embeddings": args.embeddings,
        "min_count": min_count,
        "tokenizer.lowercase": "true",
        "tokenizer.strip_chars": STRIP_CHARS,
    })
    train_words, val_words = write_prepared(Path(args.out_dir), vocab, store, table, run_cfg)
    print(f"vocabulary: {len(vocab)} words")
    print(f"sentences: {len(store)}")
    print(f"target-eligible (count > {min_count}, nonzero table row): "
          f"{len(train_words) + len(val_words)}")
    print(f"split: {len(train_words)} train / {len(val_words)} val")
    return 0


def _embeddings(args, run_cfg: dict[str, str]) -> tuple[str, EmbeddingTable]:
    """The --embeddings table, or the one the prepared directory names."""
    path = args.embeddings or run_cfg.get("embeddings")
    if not path:
        raise IngestionError("no embeddings path: pass --embeddings or re-run prepare")
    return path, load_embeddings(path)


def cmd_train(args) -> int:
    vocab, store, run_cfg = load_prepared(args.prepared_dir)
    emb_path, table = _embeddings(args, run_cfg)
    settings = resolve(args, TRAIN_SETTINGS)
    tc = TrainConfig(**config_fields(TrainConfig, TRAIN_SETTINGS, settings))
    mc = HiceConfig(embed_dim=table.dim, use_morph=not args.no_morph, seed=tc.seed,
                    **config_fields(HiceConfig, TRAIN_SETTINGS, settings))
    model, report = train(tc, vocab, store, table, model=HiceModel.from_table(mc, table))
    out = Path(args.out or (Path(args.prepared_dir) / "model.hice"))
    extra = run_config_dict("train", {
        "prepared_dir": args.prepared_dir,
        "embeddings": emb_path,
        **settings,
        "no_morph": args.no_morph,
        "best_val": repr(report.best_val),
        "best_step": report.best_step,
    })
    save_checkpoint(model, out, extra_config={f"run.{k}": v for k, v in extra.items()})
    csv_path = Path(args.report or (str(out) + ".csv"))
    with atomic_open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(config_header(extra))
        fh.write(report.to_csv())
    print(f"checkpoint: {out}")
    print(f"report: {csv_path}")
    print(f"best validation cosine: {report.best_val:.6f} at step {report.best_step}")
    return 0


def cmd_adapt(args) -> int:
    settings = resolve(args, ADAPT_SETTINGS)
    cfg = AdaptConfig(first_order=args.first_order,
                      **config_fields(AdaptConfig, ADAPT_SETTINGS, settings))
    if cfg.alpha and not args.source_dir:
        raise AdaptationError("alpha > 0 needs --source-dir, the prepared source corpus")
    # at alpha = 0 nothing is drawn from the source: only its table path is read
    run_cfg = (load_config_file(Path(args.source_dir) / RUN_CONFIG_FILE)
               if args.source_dir else {})
    emb_path, table = _embeddings(args, run_cfg)
    model = load_checkpoint(args.checkpoint)
    vocab_n, store_n = prepare_corpus(args.target_corpus, min_count=1)
    source = load_prepared(args.source_dir)[:2] + (table,) if cfg.alpha else None
    adapt(model, cfg, source, (vocab_n, store_n, table))
    out = Path(args.out or (args.checkpoint + ".adapted"))
    extra = run_config_dict("adapt", {
        "checkpoint": args.checkpoint,
        "target_corpus": args.target_corpus,
        "source_dir": args.source_dir,
        "embeddings": emb_path,
        **settings,
        "first_order": cfg.first_order,
        "mode": "finetune" if cfg.alpha == 0 else "maml",
    })
    save_checkpoint(model, out, extra_config={
        "adapted": "true", **{f"run.{k}": v for k, v in extra.items()}})
    print(f"adapted checkpoint: {out}")
    return 0


def _load_contexts(args, word: str) -> list[list[str]]:
    lines = read_text(args.contexts_file, "corpus").splitlines()
    masked = [s for s in mask_contexts(word, lines) if MASK_TOKEN in s]
    if not masked:
        raise InferenceError(
            f"{word!r} does not occur in any sentence of {args.contexts_file}"
        )
    return masked


# what ``infer --method M`` needs besides the contexts
INFER_NEEDS = {"hice": "--checkpoint", "additive": "--embeddings",
               "additive-ns": "--embeddings",
               "alacarte": "--embeddings and --checkpoint", "ngram": "--checkpoint"}


def cmd_infer(args) -> int:
    word = args.word.lower()
    masked = _load_contexts(args, word)
    method = args.method
    table = load_embeddings(args.embeddings) if args.embeddings else None
    needs = INFER_NEEDS[method]
    if ("--embeddings" in needs and table is None
            or "--checkpoint" in needs and not args.checkpoint):
        raise InferenceError(f"method {method} needs {needs}")
    fitted = _load_fitted(method, args.checkpoint, table) if "--checkpoint" in needs \
        else None
    if method == "hice" and table is None:
        table = fitted.table
    vec = _method_fn(method, fitted, table)(word, masked)
    print(f"{word} {format_vector(vec)}")
    if args.neighbors:
        if table is None:
            raise InferenceError("--neighbors needs --embeddings (or a hice checkpoint)")
        for nb_word, cos in nearest_neighbors(vec, table, args.neighbors,
                                              exclude=(word,)):
            print(f"# {nb_word} {cos:.6f}")
    return 0


def _load_fitted(method: str, path, table: EmbeddingTable | None):
    """The model file of hice, alacarte or ngram; a file whose dimension
    differs from the --embeddings table is a FormatError."""
    if method == "hice":
        fitted = load_checkpoint(path)
        dim, what = fitted.config.embed_dim, "model"
    elif method == "alacarte":
        fitted = baselines.AlaCarteModel.load(path)
        dim, what = len(fitted.matrix), "transform"
    else:
        fitted = baselines.NgramTable.load(path)
        dim, what = fitted.dim, "n-gram table"
    if table is not None and dim != table.dim:
        raise FormatError(f"{path}: a {dim}-dimensional {what} "
                          f"for a {table.dim}-dimensional table")
    return fitted


def _load_or_fit(methods: list[str], args, table: EmbeddingTable):
    """Each method's model: loaded from its file, or for the
    corpus-dependent baselines fitted on prepared training words."""
    files = {"hice": args.checkpoint, "alacarte": args.alacarte_model,
             "ngram": args.ngram_model}
    fitted = {m: _load_fitted(m, files[m], table) for m in methods if files.get(m)}
    if "hice" in methods and "hice" not in fitted:
        raise EvaluationError("method hice needs --checkpoint")
    need_fit = {m for m in methods if m in ("alacarte", "ngram") and m not in fitted}
    if not need_fit:
        return fitted
    if not args.prepared_dir:
        raise EvaluationError(
            f"methods {sorted(need_fit)} need --prepared-dir (to fit) or a "
            "--alacarte-model/--ngram-model file"
        )
    vocab, store, run_cfg = load_prepared(args.prepared_dir)
    words = eligible_targets(vocab, store, table)[: args.fit_samples]
    if "alacarte" in need_fit:
        rng = np.random.default_rng(effective(args, "seed", 0))
        pairs = []
        for ep in sample_episodes([(w, min(6, len(contexts_of(w, store)))) for w in words],
                                  rng, store, table):
            ctxs = [decode_context(ids, vocab) for ids in ep.contexts]
            base = baselines.additive(ctxs, table)
            if not base.empty:
                pairs.append((base.vector, table[ep.target_word].astype(np.float64)))
        fitted["alacarte"] = baselines.alacarte_fit(pairs)
    if "ngram" in need_fit:
        fitted["ngram"] = baselines.ngram_fit(words, table)
    if args.save_fitted:
        out = Path(args.save_fitted)
        out.mkdir(parents=True, exist_ok=True)
        if "alacarte" in fitted:
            fitted["alacarte"].save(out / "alacarte.alc")
        if "ngram" in fitted:
            fitted["ngram"].save(out / "ngrams.ngr")
    return fitted


def _method_fn(method: str, fitted, table: EmbeddingTable | None):
    """The (word, masked contexts) -> vector function of a method, shared by
    infer and eval. ``fitted`` is the method's model: a HiceModel,
    AlaCarteModel or NgramTable, unused by the table-only methods. A method
    with nothing to infer from raises InferenceError."""
    if method == "hice":
        return lambda w, ctxs: fitted.predict_vector(*episode_from_masked(w, ctxs))
    if method in ("additive", "additive-ns"):
        drop = method == "additive-ns"
        return lambda w, ctxs: _found(baselines.additive(ctxs, table, drop_stopwords=drop),
                                      baselines.NO_CONTEXT_TOKEN)
    if method == "alacarte":
        return lambda w, ctxs: baselines.alacarte_infer(ctxs, fitted, table)
    if method == "ngram":
        return lambda w, ctxs: _found(baselines.ngram_sum(w, fitted),
                                      f"no known n-grams in {w!r}")
    if method == "oracle":
        def oracle(w, ctxs):
            vec = table.get(w)
            if vec is None:
                raise EvaluationError(f"oracle: {w!r} not in the table")
            return vec.astype(np.float64)

        return oracle
    raise EvaluationError(f"unknown method {method!r}")


def _found(result, message: str) -> np.ndarray:
    """The vector of an additive or n-gram result; an empty one is an
    InferenceError with ``message``."""
    if result.empty:
        raise InferenceError(message)
    return result.vector


def cmd_eval(args) -> int:
    if args.fit_samples < 1:
        raise EvaluationError(f"--fit-samples must be at least 1, got {args.fit_samples}")
    items = load_benchmark_tsv(args.benchmark)
    table = load_embeddings(args.embeddings)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise EvaluationError("no methods given")
    fitted = _load_or_fit(methods, args, table)
    reports = []
    for method in methods:
        fn = _method_fn(method, fitted.get(method), table)
        reports.append(evaluate_method(items, fn, table, method=method))
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    run_cfg = run_config_dict("eval", {
        "benchmark": args.benchmark, "embeddings": args.embeddings,
        "methods": ",".join(methods),
    })
    header = config_header(run_cfg)
    summary_path = out_dir / "eval_summary.csv"
    with atomic_open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("method,shot,mean_rho,pooled_rho,items,failed\n")
        for rep in reports:
            for shot in sorted({r.shot for r in rep.items}):
                n = sum(1 for r in rep.items if r.shot == shot)
                failed = sum(1 for r in rep.items if r.shot == shot and r.failed)
                mean = rep.mean_by_shot.get(shot, float("nan"))
                pooled = rep.pooled_by_shot.get(shot, float("nan"))
                fh.write(f"{rep.method},{shot},{mean!r},{pooled!r},{n},{failed}\n")
    items_path = out_dir / "eval_items.csv"
    with atomic_open(items_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        rows = csv.writer(fh, lineterminator="\n")  # a reason may hold commas
        rows.writerow(["method", "shot", "pseudo_word", "rho", "failed", "reason"])
        rows.writerows(
            [rep.method, r.shot, r.pseudo_word, "" if r.rho is None else repr(r.rho),
             int(r.failed), r.reason]
            for rep in reports for r in rep.items)
    print(render_text_table(reports))
    if args.svg:
        with atomic_open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(reports, run_cfg))
        print(f"chart: {args.svg}")
    print(f"summary: {summary_path}")
    print(f"per-item: {items_path}")
    return 0


def cmd_neighbors(args) -> int:
    table = load_embeddings(args.embeddings)
    if args.word:
        vec = table.get(args.word.lower())
        if vec is None:
            raise InferenceError(f"{args.word!r} not in the table")
        exclude = (args.word.lower(),)
    else:
        if not args.vector_file:
            raise InferenceError("pass --word or --vector-file")
        lines = read_text(args.vector_file, "vector file").strip().splitlines()
        if not lines:
            raise FormatError(f"{args.vector_file}: empty vector file")
        parts = lines[-1].split()
        try:
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError:
            raise FormatError(f"{args.vector_file}: non-numeric value") from None
        if vec.shape != (table.dim,):
            raise FormatError(f"{args.vector_file}: vector has {vec.size} values, "
                              f"the table {table.dim}")
        exclude = (parts[0],)
    for word, cos in nearest_neighbors(vec, table, args.top, exclude=exclude):
        print(f"{word}\t{cos:.6f}")
    return 0


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def render_text_table(reports) -> str:
    # every shot an item has, as in eval_summary.csv; "-" where all failed
    shots = sorted({r.shot for rep in reports for r in rep.items})
    headers = ["method"] + [f"{s}-shot" for s in shots]
    rows = [headers]
    for rep in reports:
        rows.append([rep.method] + [
            f"{rep.mean_by_shot[s]:.4f}" if s in rep.mean_by_shot else "-"
            for s in shots
        ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines)


def render_svg(reports, run_cfg: dict[str, str]) -> str:
    """A minimal grouped bar chart of mean rho per method and shot."""
    body = " ".join(f"{k}={v}" for k, v in sorted(run_cfg.items()))
    provenance = f"<!-- {body.replace('--', '- -')} -->"
    shots = sorted({r.shot for rep in reports for r in rep.items})
    bar_w, gap, group_gap, height, base = 22, 4, 30, 220, 200
    colors = ["#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c"]
    x = 40
    parts = []
    max_rho = max((max(rep.mean_by_shot.values(), default=0.0) for rep in reports),
                  default=1.0)
    scale = 160 / max(max_rho, 1e-9)
    for s_i, shot in enumerate(shots):
        for m_i, rep in enumerate(reports):
            rho = rep.mean_by_shot.get(shot)
            if rho is not None:  # a shot whose items all failed keeps its slot
                h = max(1.0, rho * scale)
                parts.append(
                    f'<rect x="{x:.1f}" y="{base - h:.1f}" width="{bar_w}" '
                    f'height="{h:.1f}" fill="{colors[m_i % len(colors)]}">'
                    f'<title>{rep.method} {shot}-shot: {rho:.4f}</title></rect>'
                )
            x += bar_w + gap
        parts.append(
            f'<text x="{x - (bar_w + gap) * len(reports) / 2:.1f}" y="{base + 16}" '
            f'font-size="12" text-anchor="middle">{shot}-shot</text>'
        )
        x += group_gap
    legend = []
    for m_i, rep in enumerate(reports):
        legend.append(
            f'<rect x="40" y="{10 + 16 * m_i}" width="12" height="12" '
            f'fill="{colors[m_i % len(colors)]}"/>'
            f'<text x="58" y="{20 + 16 * m_i}" font-size="12">{rep.method}</text>'
        )
    width = max(x + 20, 300)
    return (
        provenance
        + f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height + 30}">'
        + "".join(legend) + "".join(parts) + "</svg>\n"
    )


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oov-forge",
        description="Infer embeddings for out-of-vocabulary words from a few contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="tokenize a corpus and build artifacts")
    p.set_defaults(handler=cmd_prepare, exit_code=2, config_keys=("min_count",))
    p.add_argument("corpus")
    p.add_argument("embeddings")
    p.add_argument("out_dir")
    p.add_argument("--min-count", type=int, default=None,
                   help=f"target eligibility threshold (default {DEFAULT_MIN_COUNT})")
    p.add_argument("--config", default=None)

    p = sub.add_parser("train", help="train the context-encoder model")
    p.set_defaults(handler=cmd_train, exit_code=3, config_keys=TRAIN_SETTINGS)
    p.add_argument("prepared_dir")
    p.add_argument("--embeddings", default=None)
    add_settings(p, TRAIN_SETTINGS)
    p.add_argument("--no-morph", action="store_true",
                   help="zero out the morphology slot (ablation)")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("adapt", help="adapt a checkpoint to a new corpus")
    p.set_defaults(handler=cmd_adapt, exit_code=4, config_keys=ADAPT_SETTINGS)
    p.add_argument("checkpoint")
    p.add_argument("target_corpus")
    p.add_argument("--source-dir", default=None,
                   help="the prepared source corpus; needed when alpha > 0")
    p.add_argument("--embeddings", default=None)
    add_settings(p, ADAPT_SETTINGS)
    p.add_argument("--first-order", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--finetune", dest="alpha", action="store_const", const=0.0,
                   help="plain fine-tuning on the target corpus: --alpha 0")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("infer", help="infer one word's vector from contexts")
    p.set_defaults(handler=cmd_infer, exit_code=5)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--word", required=True)
    p.add_argument("--contexts-file", required=True)
    p.add_argument("--method", default="hice",
                   choices=list(INFER_NEEDS))
    p.add_argument("--embeddings", default=None)
    p.add_argument("--neighbors", type=int, default=0)

    p = sub.add_parser("eval", help="score methods on a benchmark TSV")
    p.set_defaults(handler=cmd_eval, exit_code=6, config_keys=("seed",))
    p.add_argument("benchmark")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--methods", default="additive")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--prepared-dir", default=None)
    p.add_argument("--alacarte-model", default=None)
    p.add_argument("--ngram-model", default=None)
    p.add_argument("--fit-samples", type=int, default=500)
    p.add_argument("--save-fitted", default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("neighbors", help="nearest neighbors in a table")
    p.set_defaults(handler=cmd_neighbors, exit_code=5)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--word", default=None)
    p.add_argument("--vector-file", default=None)
    p.add_argument("--top", type=int, default=5)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args._file_config = read_config(args)
        return args.handler(args)
    except OovForgeError as e:
        print(f"error: {e}", file=sys.stderr)
        if args.command == "eval":
            return args.exit_code
        return e.exit_code or args.exit_code
    except Exception as e:  # unexpected fault
        print(f"unexpected error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
