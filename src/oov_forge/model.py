"""The neural regression function: a hierarchical attention encoder that
maps K masked context sentences plus a character sequence to a predicted
embedding vector.

Architecture, bottom to top:

  token embedding   the input table's rows, shared and read-only, plus two
                    learned rows (MASK, UNK); optional learned projection
                    up to d_model when the table dimension is not divisible
                    by the head count
  context encoder   per-position learned scalar weights ("positional
                    attention") followed by self-attention encoding
                    block(s); the sentence is summarized by the output at
                    the first MASK position, so the last block computes
                    only the mask rows, though its keys and values cover
                    every token
  aggregator        the K context vectors as a length-K sequence through
                    encoding block(s) WITHOUT positional weighting (order
                    must not matter), then mean-pooled
  morphology        character embeddings -> conv + max-over-time per filter
                    width -> concat -> ReLU
  fusion            one linear projection from [context | morphology] down
                    to the output embedding dimension

Every stage runs on a whole batch of episodes at once: B episodes, C
contexts and T tokens, packed back to back, with padding only inside
attention. Shapes in comments also use L = sentence length, K = shot count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import tensor as tc
from .container import config_value, pack_text
from .corpus import EmbeddingTable, Vocabulary
from .episode import MASK_ID, MAX_LEN, MAX_WORD_LEN, N_CHARS, Episode
from .errors import FormatError, InputError
from .tensor import Tensor


@dataclass(frozen=True)
class HiceConfig:
    embed_dim: int
    n_heads: int = 4
    n_context_blocks: int = 1
    n_agg_blocks: int = 1
    char_emb_dim: int = 16
    char_filters: int = 32
    filter_widths: tuple[int, ...] = (2, 3, 4)
    use_morph: bool = True
    seed: int = 0

    # the episode shape sample_episode trains on
    max_len: ClassVar[int] = MAX_LEN
    max_word_len: ClassVar[int] = MAX_WORD_LEN
    # a sentence is summarized by its first MASK position
    context_pool: ClassVar[str] = "mask"

    def __post_init__(self):
        # the mask pool reads the last context block, so there must be one
        sizes = {"embed_dim": self.embed_dim, "n_heads": self.n_heads,
                 "n_context_blocks": self.n_context_blocks,
                 "char_emb_dim": self.char_emb_dim, "char_filters": self.char_filters,
                 "filter width": min(self.filter_widths, default=1)}
        for name, value in sizes.items():
            if value < 1:
                raise InputError(f"{name} must be >= 1, got {value}")
        for name in ("n_agg_blocks", "seed"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0, got {getattr(self, name)}")
        if len(set(self.filter_widths)) < len(self.filter_widths):
            raise InputError(f"filter widths repeat: {self.filter_widths}")

    @property
    def d_model(self) -> int:
        """The smallest multiple of n_heads >= embed_dim."""
        return self.n_heads * math.ceil(self.embed_dim / self.n_heads)

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def c_morph(self) -> int:
        return self.char_filters * len(self.filter_widths)

    def as_dict(self) -> dict[str, str]:
        return {
            "embed_dim": str(self.embed_dim),
            "n_heads": str(self.n_heads),
            "d_model": str(self.d_model),
            "d_ff": str(self.d_ff),
            "n_context_blocks": str(self.n_context_blocks),
            "n_agg_blocks": str(self.n_agg_blocks),
            "char_emb_dim": str(self.char_emb_dim),
            "char_filters": str(self.char_filters),
            "filter_widths": ",".join(str(w) for w in self.filter_widths),
            "max_len": str(self.max_len),
            "max_word_len": str(self.max_word_len),
            "use_morph": str(self.use_morph).lower(),
            "context_pool": self.context_pool,
            "seed": str(self.seed),
        }

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> "HiceConfig":
        try:
            config = cls(
                **{key: config_value(d, key, int) for key in (
                    "embed_dim", "n_heads", "n_context_blocks", "n_agg_blocks",
                    "char_emb_dim", "char_filters")},
                filter_widths=config_value(
                    d, "filter_widths", lambda v: tuple(int(w) for w in v.split(","))),
                use_morph=config_value(d, "use_morph") == "true",
                seed=config_value(d, "seed", int, "0"),
            )
        except InputError as e:
            raise FormatError(f"config: {e}") from None
        # as_dict records these derived values; an older config could set them
        for key in ("d_model", "d_ff", "max_len", "max_word_len", "context_pool"):
            derived = getattr(config, key)
            if config_value(d, key, type(derived)) != derived:
                raise FormatError(f"config: {key}={d[key]} differs from the "
                                  f"derived value {derived}")
        return config


def block_arrays(prefix: str, d_model: int, n_heads: int, d_ff: int,
                 rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A fresh attention block's arrays, named ``prefix.*`` and drawn in
    that order."""
    s_in = 1.0 / math.sqrt(d_model)
    # [head, (q, k, v)] blocks of d_head columns; wq holds every head's
    # query block, wkv every head's key block, then every value block
    w = rng.normal(size=(n_heads, 3, d_model, d_model // n_heads)) * s_in
    return {f"{prefix}.{name}": arr for name, arr in (
        ("wq", w[:, 0].transpose(1, 0, 2).reshape(d_model, -1)),
        ("wkv", w[:, 1:].transpose(2, 1, 0, 3).reshape(d_model, -1)),
        ("wo", rng.normal(size=(d_model, d_model)) * s_in),
        ("ffn.w1", rng.normal(size=(d_model, d_ff)) * s_in),
        ("ffn.b1", np.zeros(d_ff)),
        ("ffn.w2", rng.normal(size=(d_ff, d_model)) / math.sqrt(d_ff)),
        ("ffn.b2", np.zeros(d_model)),
        ("ln1.g", np.ones(d_model)), ("ln1.b", np.zeros(d_model)),
        ("ln2.g", np.ones(d_model)), ("ln2.b", np.zeros(d_model)))}


def fresh_arrays(config: HiceConfig, frozen: np.ndarray) -> dict[str, np.ndarray]:
    """A fresh model's parameter arrays by name, in ``parameters()`` order,
    drawn from ``config.seed`` in that order; the MASK and UNK rows start as
    the mean of the frozen rows."""
    d_in, d_model = config.embed_dim, config.d_model
    rng = np.random.default_rng(config.seed)
    mean_row = frozen.mean(axis=0, dtype=np.float64) if len(frozen) else np.zeros(d_in)
    arrays = {"special_embed": np.stack([mean_row, mean_row])}
    if d_model != d_in:
        arrays["input_proj.w"] = rng.normal(size=(d_in, d_model)) / math.sqrt(d_in)
        arrays["input_proj.b"] = np.zeros(d_model)
    arrays["a_pos"] = np.ones(config.max_len)
    for kind, n in (("ctx", config.n_context_blocks), ("agg", config.n_agg_blocks)):
        for i in range(n):
            arrays.update(block_arrays(f"{kind}{i}", d_model, config.n_heads,
                                       config.d_ff, rng))
    ce = config.char_emb_dim
    arrays["char_embed"] = rng.normal(size=(N_CHARS, ce)) * 0.1
    for w in config.filter_widths:
        arrays[f"conv{w}.filters"] = (rng.normal(size=(w, ce, config.char_filters))
                                      / math.sqrt(w * ce))
        arrays[f"conv{w}.bias"] = np.zeros(config.char_filters)
    fuse_in = d_model + config.c_morph
    arrays["fuse.w"] = rng.normal(size=(fuse_in, d_in)) / math.sqrt(fuse_in)
    arrays["fuse.b"] = np.zeros(d_in)
    return arrays


class AttentionBlockParams:
    """Weights of one self-attention encoding block; ``take(name, *shape)``
    gives the parameter of each array named ``prefix.*`` (see
    ``block_arrays``)."""

    def __init__(self, take: Callable[..., Tensor], prefix: str, d_model: int,
                 n_heads: int, d_ff: int):
        self.wq = take(f"{prefix}.wq", d_model, d_model)
        self.wkv = take(f"{prefix}.wkv", d_model, 2 * d_model)
        self.wo = take(f"{prefix}.wo", d_model, d_model)
        self.w1 = take(f"{prefix}.ffn.w1", d_model, d_ff)
        self.b1 = take(f"{prefix}.ffn.b1", d_ff)
        self.w2 = take(f"{prefix}.ffn.w2", d_ff, d_model)
        self.b2 = take(f"{prefix}.ffn.b2", d_model)
        self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b = (
            take(f"{prefix}.{name}", d_model)
            for name in ("ln1.g", "ln1.b", "ln2.g", "ln2.b"))
        self.d_model = d_model
        self.n_heads = n_heads


class Segments:
    """Variable-length sequences stored back to back as the rows of one
    packed [N, ...] matrix; sequence i holds ``lengths[i]`` rows.

    ``index`` [S, Lmax] gives the packed row of each padded slot (-1 past
    the end of a sequence); ``positions`` gives each packed row's offset
    inside its sequence.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.intp)
        if self.lengths.ndim != 1 or not self.lengths.size or self.lengths.min() < 1:
            raise InputError(f"sequence lengths must be positive, got {list(lengths)}")
        self.starts = np.cumsum(self.lengths) - self.lengths
        slot = np.arange(int(self.lengths.max()))
        valid = slot < self.lengths[:, None]
        self.index = np.where(valid, self.starts[:, None] + slot, -1)
        self.positions = np.nonzero(valid)[1]


def self_attention(x: Tensor, xq: Tensor, p: AttentionBlockParams, seqs: Segments,
                   sink: list | None = None, rows: np.ndarray | None = None) -> Tensor:
    """Multi-head self-attention within each sequence of the packed rows
    x[N, d_model]; scores scaled by 1/sqrt(d_model).

    ``rows`` [S, Lq] picks the output rows of each sequence (-1 pads; default
    ``seqs.index``, every row), ``xq`` holds those rows of x in order, and
    the result holds them in order, [Nq, d_model]. Keys and values are
    projected for every row, queries for the picked ones. ``sink`` collects
    the softmax array of ``tc.attention`` [S, heads, Lq, Lmax], one per call.
    """
    picked = (seqs.index if rows is None else rows) >= 0
    # slot of each picked row in xq, -1 past the end of a sequence
    q_slot = np.where(picked, np.cumsum(picked).reshape(picked.shape) - 1, -1)
    out = tc.attention(tc.matmul(xq, p.wq), tc.matmul(x, p.wkv), p.n_heads,
                       q_slot, seqs.index, sink)
    return tc.matmul(out, p.wo)


def encoding_block(x: Tensor, p: AttentionBlockParams, seqs: Segments,
                   rows: np.ndarray | None = None) -> Tensor:
    """Self-attention and a position-wise FFN, each wrapped in residual +
    layer norm, over the packed rows x[N, d_model]; with ``rows``, as in
    ``self_attention``, all but the keys and values run on those rows only."""
    xq = x if rows is None else tc.gather_rows(x, rows[rows >= 0])
    y1 = tc.layer_norm(tc.add(xq, self_attention(x, xq, p, seqs, rows=rows)),
                       p.ln1_g, p.ln1_b)
    h = tc.relu(tc.add_bias(tc.matmul(y1, p.w1), p.b1))
    ffn = tc.add_bias(tc.matmul(h, p.w2), p.b2)
    return tc.layer_norm(tc.add(y1, ffn), p.ln2_g, p.ln2_b)


@dataclass
class Batch:
    """The layout of a batch of episodes, built once per forward pass by
    ``HiceModel.batch``: contexts are packed in episode order, tokens in
    context order."""

    contexts: Segments        # the tokens of every context
    shots: Segments           # the contexts of every episode
    frozen_rows: np.ndarray   # [T] frozen-table row of a token, -1 for MASK/UNK
    special_rows: np.ndarray  # [T] learned row (MASK_ROW, UNK_ROW), -1 at frozen tokens
    pool_rows: np.ndarray     # [C] packed token a context is summarized by
    chars: np.ndarray         # [B, W] character ids, -1 past the end of a word
    char_lengths: np.ndarray  # [B]


class HiceModel:
    """Hierarchical context encoder with learnable parameters.

    The frozen context-embedding rows are plain numpy data, never tensors,
    so they cannot receive gradients by construction; only the MASK/UNK
    rows and the rest of the network train.
    """

    MASK_ROW = 0
    UNK_ROW = 1

    def __init__(self, config: HiceConfig, frozen: np.ndarray,
                 frozen_words: list[str], vocab: Vocabulary | None = None):
        """A fresh model over the rows ``frozen`` of ``frozen_words`` (shared
        when float32), its parameters drawn by ``fresh_arrays``."""
        table = EmbeddingTable.from_rows(frozen_words, frozen)
        self._bind(config, table, fresh_arrays(config, table.matrix), vocab)

    @classmethod
    def from_arrays(cls, config: HiceConfig, table: EmbeddingTable,
                    arrays: dict[str, np.ndarray],
                    vocab: Vocabulary | None = None) -> "HiceModel":
        """A model over ``table`` holding ``arrays``, one per parameter name,
        as a checkpoint stores them."""
        model = cls.__new__(cls)
        model._bind(config, table, arrays, vocab)
        return model

    def _bind(self, config: HiceConfig, table: EmbeddingTable,
              arrays: dict[str, np.ndarray], vocab: Vocabulary | None) -> None:
        """Make each parameter from its array in ``arrays``. A missing,
        misshapen or extra array is an error, so a checkpoint whose config
        was edited cannot drop parameters."""
        if table.dim != config.embed_dim:
            raise InputError(f"frozen table {table.matrix.shape} does not match "
                             f"embed_dim {config.embed_dim}")
        self.config, self.table, self.vocab = config, table, vocab
        arrays, self._params = dict(arrays), []

        def take(name: str, *shape: int) -> Tensor:
            if name not in arrays:
                raise FormatError(f"checkpoint missing parameter {name!r}")
            arr = np.asarray(arrays.pop(name), dtype=np.float64)
            if arr.shape != shape:
                raise FormatError(
                    f"checkpoint parameter {name!r}: shape {arr.shape} vs {shape}")
            self._params.append((name, tc.parameter(arr)))
            return self._params[-1][1]

        d_in, d_model = config.embed_dim, config.d_model
        self.special_embed = take("special_embed", 2, d_in)
        self.input_proj_w = self.input_proj_b = None
        if d_model != d_in:
            self.input_proj_w = take("input_proj.w", d_in, d_model)
            self.input_proj_b = take("input_proj.b", d_model)
        self.a_pos = take("a_pos", config.max_len)
        block = partial(AttentionBlockParams, take, d_model=d_model,
                        n_heads=config.n_heads, d_ff=config.d_ff)
        self.ctx_blocks = [block(f"ctx{i}") for i in range(config.n_context_blocks)]
        self.agg_blocks = [block(f"agg{i}") for i in range(config.n_agg_blocks)]
        ce = config.char_emb_dim
        self.char_embed = take("char_embed", N_CHARS, ce)
        self.conv_filters, self.conv_bias = {}, {}
        for w in config.filter_widths:
            self.conv_filters[w] = take(f"conv{w}.filters", w, ce, config.char_filters)
            self.conv_bias[w] = take(f"conv{w}.bias", config.char_filters)
        self.fuse_w = take("fuse.w", d_model + config.c_morph, d_in)
        self.fuse_b = take("fuse.b", d_in)
        if arrays:
            raise FormatError(f"checkpoint has unexpected array {next(iter(arrays))!r}")

    @classmethod
    def from_table(cls, config: HiceConfig, table: EmbeddingTable,
                   vocab: Vocabulary | None = None) -> "HiceModel":
        return cls(config, table.matrix, table.words(), vocab)

    @property
    def frozen(self) -> np.ndarray:
        """The frozen rows, float32 [V, embed_dim]: the table's matrix."""
        return self.table.matrix

    @property
    def frozen_words(self) -> list[str]:
        return self.table.words()

    def bind_vocab(self, vocab: Vocabulary) -> None:
        self.vocab = vocab

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every parameter by name, in the order ``_bind`` takes them, which
        is the checkpoint's."""
        return list(self._params)

    def zero_grads(self) -> None:
        for _, p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def _resolve_vocab(self, vocab: Vocabulary | None) -> Vocabulary:
        v = vocab or self.vocab
        if v is None:
            raise InputError("no vocabulary bound to the model or passed in")
        return v

    def batch(self, episodes: Sequence[Episode],
              vocab: Vocabulary | None = None) -> Batch:
        """Validate the episodes and lay them out for one forward pass."""
        if not episodes:
            raise InputError("empty batch of episodes")
        contexts = [ids for ep in episodes for ids in ep.contexts]
        for ep in episodes:
            if not ep.contexts:
                raise InputError(f"episode for {ep.target_word!r} has no contexts")
            if not ep.char_seq:
                raise InputError("encode_morphology: empty character sequence")
        for ids in contexts:
            if not ids:
                raise InputError("encode_context: empty context")
            if len(ids) > self.config.max_len:
                raise InputError(f"encode_context: length {len(ids)} exceeds "
                                 f"max_len {self.config.max_len}")
        tokens = np.fromiter(chain.from_iterable(contexts), dtype=np.intp)
        frozen_rows = np.full(len(tokens), -1, dtype=np.intp)
        real = np.flatnonzero(tokens >= 0)
        if real.size:  # a context of MASK/UNK sentinels needs no vocabulary
            words, row_of = self._resolve_vocab(vocab).words, self.table.index
            frozen_rows[real] = [row_of.get(words[t], -1) for t in tokens[real].tolist()]
        segs = Segments([len(ids) for ids in contexts])
        # an unmasked ad-hoc context is summarized by its first position
        pool_at = [ids.index(MASK_ID) if MASK_ID in ids else 0 for ids in contexts]
        widths = [len(ep.char_seq) for ep in episodes]
        chars = np.full((len(episodes), max(widths)), -1, dtype=np.intp)
        for i, ep in enumerate(episodes):
            chars[i, :widths[i]] = ep.char_seq
        return Batch(
            contexts=segs,
            shots=Segments([ep.k for ep in episodes]),
            frozen_rows=frozen_rows,
            special_rows=np.where(frozen_rows >= 0, -1,
                                  np.where(tokens == MASK_ID, self.MASK_ROW, self.UNK_ROW)),
            pool_rows=segs.starts + np.asarray(pool_at, dtype=np.intp),
            chars=chars,
            char_lengths=np.asarray(widths, dtype=np.intp),
        )

    def embed_tokens(self, batch: Batch) -> Tensor:
        """Packed tokens -> [T, d_in]: a constant holding each frozen token's
        table row plus the learned MASK/UNK rows, which are zero at frozen
        tokens."""
        known = batch.frozen_rows >= 0
        base = np.zeros((len(known), self.config.embed_dim))
        base[known] = self.frozen[batch.frozen_rows[known]]
        return tc.add(tc.constant(base), tc.gather_rows(self.special_embed,
                                                        batch.special_rows))

    def encode_context(self, batch: Batch) -> Tensor:
        """Every masked sentence of the batch -> [C, d_model] summaries."""
        x = self.embed_tokens(batch)
        if self.input_proj_w is not None:
            x = tc.add_bias(tc.matmul(x, self.input_proj_w), self.input_proj_b)
        x = tc.scale_rows(x, tc.gather_rows(self.a_pos, batch.contexts.positions))
        *inner, last = self.ctx_blocks
        for block in inner:
            x = encoding_block(x, block, batch.contexts)
        # the mask pool reads one row per context, so the last block computes
        # only those; its keys and values still cover every token
        return encoding_block(x, last, batch.contexts, batch.pool_rows[:, None])

    def aggregate(self, ctx_vectors: Tensor, shots: Segments) -> Tensor:
        """Context vectors [C, d_model], ``shots`` of them per episode ->
        one [B, d_model] row per episode, order-invariantly: no positional
        weighting, symmetric mean pool."""
        x = ctx_vectors
        for block in self.agg_blocks:
            x = encoding_block(x, block, shots)
        return tc.segment_mean(x, shots.lengths)

    def encode_morphology(self, batch: Batch) -> Tensor:
        """Every target word's characters -> [B, c_morph] morphology
        features."""
        x = tc.gather_rows(self.char_embed, batch.chars)
        pooled = [
            tc.add_bias(tc.conv1d_maxpool(x, self.conv_filters[w], batch.char_lengths),
                        self.conv_bias[w])
            for w in self.config.filter_widths
        ]
        return tc.relu(tc.concat_cols(pooled))

    def predict(self, episodes: Sequence[Episode],
                vocab: Vocabulary | None = None) -> Tensor:
        """Predicted embeddings [B, d_in] for the episodes' target words, in
        one padded forward pass.

        With morphology off, the morphology slot of the fusion input is a
        zero vector of the same width (ablation arm).
        """
        batch = self.batch(episodes, vocab)
        agg = self.aggregate(self.encode_context(batch), batch.shots)
        if self.config.use_morph:
            morph = self.encode_morphology(batch)
        else:
            morph = tc.constant(np.zeros((len(episodes), self.config.c_morph)))
        fused = tc.concat_cols([agg, morph])
        return tc.add_bias(tc.matmul(fused, self.fuse_w), self.fuse_b)

    def predict_vector(self, episode: Episode,
                       vocab: Vocabulary | None = None) -> np.ndarray:
        """Inference path: no graph recording, returns a plain array."""
        return self.predict([episode], vocab).data[0]

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        arrays = [(name, p.data) for name, p in self.parameters()]
        arrays.append(("frozen_rows", self.frozen))
        arrays.append(("frozen_words", pack_text("\n".join(self.frozen_words))))
        return arrays
