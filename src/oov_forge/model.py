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
from operator import mul, truediv
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import tensor as tc
from .container import config_value, pack_text
from .corpus import EmbeddingTable, Vocabulary
from .episode import MASK_ID, MAX_LEN, MAX_WORD_LEN, N_CHARS, Episode
from .errors import FormatError, InputError
from .tensor import Parameter, ParamVector, Tensor


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
        # every stored value, derived ones included, must be the text this
        # config writes: "use_morph=True" or "n_heads= 4" parses, but as
        # another value or in another form
        for key, text in config.as_dict().items():
            stored = config_value(d, key, default="0" if key == "seed" else None)
            if stored != text:
                raise FormatError(f"config: {key}={stored} is not the text this config "
                                  f"writes; it reads as {key}={text}")
        return config


Init = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


def zeros(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)


def normal(op: Callable, factor: float) -> Init:
    """An initialiser: standard normal draws combined with ``factor`` by
    ``op``, the multiply or the divide each parameter has always been drawn
    with, so a seed gives the same values bit for bit."""
    return lambda rng, shape: op(rng.normal(size=shape), factor)


class AttentionBlockParams:
    """Weights of one self-attention encoding block; ``take(name, init,
    *shape)`` gives the parameter of each array named ``prefix.*``, where
    ``init(rng, shape)`` draws a fresh block's value."""

    def __init__(self, take: Callable[..., Parameter], prefix: str, d_model: int,
                 n_heads: int, d_ff: int):
        s_in = 1.0 / math.sqrt(d_model)
        drawn = []

        def draw_qkv(rng, shape):
            # [head, (q, k, v)] blocks of d_head columns, drawn at once; wq
            # holds every head's query block, wkv every head's key block,
            # then every value block
            drawn.append(rng.normal(size=(n_heads, 3, d_model, d_model // n_heads)) * s_in)
            return drawn[-1][:, 0].transpose(1, 0, 2).reshape(shape)

        def draw_kv(rng, shape):
            return drawn.pop()[:, 1:].transpose(2, 1, 0, 3).reshape(shape)

        self.wq = take(f"{prefix}.wq", draw_qkv, d_model, d_model)
        self.wkv = take(f"{prefix}.wkv", draw_kv, d_model, 2 * d_model)
        self.wo = take(f"{prefix}.wo", normal(mul, s_in), d_model, d_model)
        self.w1 = take(f"{prefix}.ffn.w1", normal(mul, s_in), d_model, d_ff)
        self.b1 = take(f"{prefix}.ffn.b1", zeros, d_ff)
        self.w2 = take(f"{prefix}.ffn.w2", normal(truediv, math.sqrt(d_ff)), d_ff, d_model)
        self.b2 = take(f"{prefix}.ffn.b2", zeros, d_model)
        self.ln1_g = take(f"{prefix}.ln1.g", ones, d_model)
        self.ln1_b = take(f"{prefix}.ln1.b", zeros, d_model)
        self.ln2_g = take(f"{prefix}.ln2.g", ones, d_model)
        self.ln2_b = take(f"{prefix}.ln2.b", zeros, d_model)
        self.d_model = d_model
        self.n_heads = n_heads


class Segments:
    """Variable-length sequences stored back to back as the rows of one
    packed [N, ...] matrix; sequence i holds ``lengths[i]`` rows.

    ``mask`` [S, Lmax] marks the padded slots that hold a row: the packed
    rows fill them in row-major order. ``positions`` gives each packed
    row's offset inside its sequence.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.intp)
        if self.lengths.ndim != 1 or not self.lengths.size or self.lengths.min() < 1:
            raise InputError(f"sequence lengths must be positive, got {list(lengths)}")
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.mask = np.arange(int(self.lengths.max())) < self.lengths[:, None]
        self.positions = np.nonzero(self.mask)[1]


def encoding_block(x: Tensor, p: AttentionBlockParams, seqs: Segments,
                   rows: np.ndarray | None = None, sink: list | None = None) -> Tensor:
    """``tc.encoding_block`` with ``p``'s weights over the rows x of ``seqs``."""
    return tc.encoding_block(x, p.n_heads, seqs.mask, p.wq, p.wkv, p.wo, p.ln1_g, p.ln1_b,
                             p.w1, p.b1, p.w2, p.b2, p.ln2_g, p.ln2_b, rows, sink)


@dataclass
class Batch:
    """The layout of a batch of episodes, built by ``HiceModel.batch``:
    contexts are packed in episode order, tokens in context order. It
    depends on the frozen table, not on the parameters, so one layout
    serves every forward pass over the same episodes."""

    contexts: Segments        # the tokens of every context
    shots: Segments           # the contexts of every episode
    frozen_rows: np.ndarray   # [T] frozen-table row of a token, -1 for MASK/UNK
    special_rows: np.ndarray  # [T] learned row (MASK_ROW, UNK_ROW), -1 at frozen tokens
    pool_rows: np.ndarray     # [C] packed token a context is summarized by
    chars: np.ndarray         # [B, W] character ids, -1 past the end of a word
    char_lengths: np.ndarray  # [B]
    oracles: np.ndarray | None  # [B, d_in] the episodes' oracles; None if one has none


class HiceModel:
    """Hierarchical context encoder with learnable parameters.

    The frozen context-embedding rows are plain numpy data, never tensors,
    so they cannot receive gradients by construction; only the MASK/UNK
    rows and the rest of the network train.
    """

    MASK_ROW = 0
    UNK_ROW = 1

    def __init__(self, config: HiceConfig, frozen: np.ndarray, frozen_words: list[str]):
        """A fresh model over the rows ``frozen`` of ``frozen_words`` (shared
        when float32), its parameters drawn from ``config.seed``."""
        self._bind(config, EmbeddingTable.from_rows(frozen_words, frozen), None)

    @classmethod
    def from_arrays(cls, config: HiceConfig, table: EmbeddingTable,
                    arrays: dict[str, np.ndarray] | None) -> "HiceModel":
        """A model over ``table``, bound as ``model.table``, holding
        ``arrays``, one per parameter name, as a checkpoint stores them, or
        when it is None a fresh model's."""
        model = cls.__new__(cls)
        model._bind(config, table, arrays)
        return model

    def _bind(self, config: HiceConfig, table: EmbeddingTable,
              arrays: dict[str, np.ndarray] | None) -> None:
        """Make the parameters, each cast straight into its slice of one
        parameter vector in checkpoint order: from ``arrays``, or when it is
        None from each declaration's initialiser, drawn in turn from one
        generator seeded with ``config.seed``. A missing, misshapen or extra
        array is an error, so a checkpoint whose config was edited cannot
        drop parameters."""
        if table.dim != config.embed_dim:
            raise InputError(f"frozen table {table.matrix.shape} does not match "
                             f"embed_dim {config.embed_dim}")
        self.config, self.table = config, table
        sizes: list[int] = []
        self._attach(lambda name, init, *shape: sizes.append(math.prod(shape)))
        params = self._params = ParamVector(sum(sizes))
        if arrays is None:
            rng = np.random.default_rng(config.seed)
            self._attach(lambda name, init, *shape: params.add(name, init(rng, shape)))
            return
        arrays = dict(arrays)

        def take(name: str, init: Init, *shape: int) -> Parameter:
            if name not in arrays:
                raise FormatError(f"checkpoint missing parameter {name!r}")
            arr = arrays.pop(name)
            if np.shape(arr) != shape:
                raise FormatError(f"checkpoint parameter {name!r}: shape {np.shape(arr)} "
                                  f"vs {shape}")
            return params.add(name, arr)

        self._attach(take)
        if arrays:
            raise FormatError(f"checkpoint has unexpected array {next(iter(arrays))!r}")

    def _attach(self, take: Callable[..., Parameter]) -> None:
        """Set each parameter attribute to ``take(name, init, *shape)``, in
        checkpoint order, where ``init(rng, shape)`` draws a fresh model's
        value: ``_bind`` runs this once to learn the sizes and once to bind
        the parameters."""
        config = self.config
        d_in, d_model = config.embed_dim, config.d_model
        self.special_embed = take("special_embed", self._mean_rows, 2, d_in)
        self.input_proj_w = self.input_proj_b = None
        if d_model != d_in:
            self.input_proj_w = take("input_proj.w", normal(truediv, math.sqrt(d_in)),
                                     d_in, d_model)
            self.input_proj_b = take("input_proj.b", zeros, d_model)
        self.a_pos = take("a_pos", ones, config.max_len)
        block = partial(AttentionBlockParams, take, d_model=d_model,
                        n_heads=config.n_heads, d_ff=config.d_ff)
        self.ctx_blocks = [block(f"ctx{i}") for i in range(config.n_context_blocks)]
        self.agg_blocks = [block(f"agg{i}") for i in range(config.n_agg_blocks)]
        ce = config.char_emb_dim
        self.char_embed = take("char_embed", normal(mul, 0.1), N_CHARS, ce)
        self.conv_filters, self.conv_bias = {}, {}
        for w in config.filter_widths:
            self.conv_filters[w] = take(f"conv{w}.filters", normal(truediv, math.sqrt(w * ce)),
                                        w, ce, config.char_filters)
            self.conv_bias[w] = take(f"conv{w}.bias", zeros, config.char_filters)
        fuse_in = d_model + config.c_morph
        self.fuse_w = take("fuse.w", normal(truediv, math.sqrt(fuse_in)), fuse_in, d_in)
        self.fuse_b = take("fuse.b", zeros, d_in)

    def _mean_rows(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        """The MASK and UNK rows of a fresh model: the mean of the frozen rows."""
        frozen = self.frozen
        mean_row = frozen.mean(axis=0, dtype=np.float64) if len(frozen) else np.zeros(shape[1])
        return np.broadcast_to(mean_row, shape)

    @classmethod
    def from_table(cls, config: HiceConfig, table: EmbeddingTable,
                   vocab: Vocabulary | None = None) -> "HiceModel":
        """A fresh model over ``table``. ``vocab`` is unused: the benchmark's
        pinned call still passes one."""
        return cls.from_arrays(config, table, None)

    @property
    def frozen(self) -> np.ndarray:
        """The frozen rows, float32 [V, embed_dim]: the table's matrix."""
        return self.table.matrix

    @property
    def frozen_words(self) -> list[str]:
        return self.table.words()

    def parameters(self) -> ParamVector:
        """The parameter vector: iterating gives every parameter by name, in
        the order ``_bind`` takes them, which is the checkpoint's."""
        return self._params

    def zero_grads(self) -> None:
        self._params.zero_grads()

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def batch(self, episodes: Sequence[Episode]) -> Batch:
        """Validate the episodes and lay out their packed contexts for
        forward passes. Their ids must index one vocabulary, which maps
        them to table rows."""
        if not episodes:
            raise InputError("empty batch of episodes")
        vocab = episodes[0].vocab
        for ep in episodes:
            if ep.vocab is not vocab:
                raise InputError(f"episode for {ep.target_word!r} indexes another "
                                 "vocabulary than the rest of its batch")
            if not ep.k:
                raise InputError(f"episode for {ep.target_word!r} has no contexts")
            if not ep.char_seq:
                raise InputError("encode_morphology: empty character sequence")
        lengths = np.concatenate([ep.lengths for ep in episodes])
        if lengths.min() < 1:
            raise InputError("encode_context: empty context")
        if lengths.max() > self.config.max_len:
            raise InputError(f"encode_context: length {lengths.max()} exceeds "
                             f"max_len {self.config.max_len}")
        tokens = np.concatenate([ep.tokens for ep in episodes])
        frozen_rows = np.full(len(tokens), -1, dtype=np.intp)
        real = np.flatnonzero(tokens >= 0)
        frozen_rows[real] = vocab.rows_in(self.table)[tokens[real]]
        segs = Segments(lengths)
        widths = [len(ep.char_seq) for ep in episodes]
        chars = np.full((len(episodes), max(widths)), -1, dtype=np.intp)
        for i, ep in enumerate(episodes):
            chars[i, :widths[i]] = ep.char_seq
        oracles = [ep.oracle for ep in episodes]
        return Batch(
            contexts=segs,
            shots=Segments([ep.k for ep in episodes]),
            frozen_rows=frozen_rows,
            special_rows=np.where(frozen_rows >= 0, -1,
                                  np.where(tokens == MASK_ID, self.MASK_ROW, self.UNK_ROW)),
            pool_rows=segs.starts + np.concatenate([ep.pools for ep in episodes]),
            chars=chars,
            char_lengths=np.asarray(widths, dtype=np.intp),
            oracles=None if any(o is None for o in oracles) else np.stack(oracles),
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
        widths = self.config.filter_widths
        return tc.char_cnn(tc.gather_rows(self.char_embed, batch.chars),
                           [self.conv_filters[w] for w in widths],
                           [self.conv_bias[w] for w in widths], batch.char_lengths)

    def predict(self, episodes: Sequence[Episode] | Batch) -> Tensor:
        """Predicted embeddings [B, d_in] for the episodes' target words, in
        one padded forward pass over their layout, built here unless given.

        With morphology off, the morphology slot of the fusion input is a
        zero vector of the same width (ablation arm).
        """
        batch = episodes if isinstance(episodes, Batch) else self.batch(episodes)
        agg = self.aggregate(self.encode_context(batch), batch.shots)
        if self.config.use_morph:
            morph = self.encode_morphology(batch)
        else:
            morph = tc.constant(np.zeros((len(batch.char_lengths), self.config.c_morph)))
        fused = tc.concat_cols([agg, morph])
        return tc.add_bias(tc.matmul(fused, self.fuse_w), self.fuse_b)

    def predict_vector(self, episode: Episode,
                       vocab: Vocabulary | None = None) -> np.ndarray:
        """Inference path: no graph recording, returns a plain array.
        ``vocab`` is unused: the benchmark's pinned call still passes the
        episode's own."""
        return self.predict([episode]).data[0]

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        arrays = [(name, p.data) for name, p in self.parameters()]
        arrays.append(("frozen_rows", self.frozen))
        arrays.append(("frozen_words", pack_text("\n".join(self.frozen_words))))
        return arrays
