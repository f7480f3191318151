"""Two-tower interaction encoder, run on a batch of pairs at once.

A protein tower (1-d convolutions over residue embeddings) and a drug tower
(graph convolutions over atom features) each emit three feature maps at
increasing receptive field.  Every level is joined by a bilinear attention
step that produces one fixed-width vector per level, and a small gated
attention unit fuses the three vectors into the final pair representation
that the prediction head, if any, and any downstream objective consume.

The towers run once per distinct entity of a batch: the protein tower on
the fixed-length token windows [P, L], the drug tower on atom features and
adjacencies zero-padded to the batch's largest molecule [D, M, M] with an
atom mask.  `interact` lifts every drug row it is given to the joint width,
hands the protein rows and their lift to the bilinear attention, which
lifts each protein once (on the paper preset its real rows only), and runs
the fusion unit and the head with a row per pair.  A training step hands it
the towers' outputs as they are, since its pairs use every row; inference
(`train.encode_chunks`) gathers each slice's rows first.

Design notes that matter for correctness:

* The protein tower halves its length after every level (max pool of 2), so
  level masks must be recomputed from the true residue count as lengths
  shrink.  Positions past the mask get their attention column forced to
  zero; convolution bleed across the boundary is tolerated because the pad
  embedding is a learned constant, and the per-sample statistics include
  the pad rows of the window.
* Pad atoms take no part in anything a real atom sees: the padded
  adjacency has no edges to them, the masked normalization leaves them out
  of its statistics and zeroes them, and their attention rows are masked.
* The drug tower never pools its atom axis: atom order is an artifact of
  the input writing, so a positional pool would change results under
  renumbering.  Both the extraction chain and the per-level output branch
  are graph convolutions over the full normalised adjacency, keeping every
  level output permutation equivariant and every attention row attributable
  to one atom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .optim import ParameterStore, kaiming_uniform
from .proteins import VOCAB_SIZE
from .smiles import MolecularGraph
from .tensor import Tensor

# fixed atom vocabulary for the one-hot block; anything else maps to the
# trailing "other" slot
ELEMENT_SLOTS = ("C", "N", "O", "S", "F", "P", "Cl", "Br", "I", "B")
MAX_DEGREE = 5
CHARGE_RANGE = (-2, 2)
MAX_IMPLICIT_H = 4

ATOM_FEAT_DIM = (
    len(ELEMENT_SLOTS)
    + 1  # other-element slot
    + MAX_DEGREE + 1
    + (CHARGE_RANGE[1] - CHARGE_RANGE[0] + 1)
    + MAX_IMPLICIT_H + 1
    + 1  # aromatic flag
)

# the structure both presets share: one tower level per protein kernel
# width, the bilinear attention heads of each level, and the mean-pool
# window that takes a level's joint vector to the fused width
KERNEL_SIZES = (3, 6, 9)
ATTN_HEADS = 2
JOINT_POOL = 3


class ConfigError(ValueError):
    """Malformed, mistyped, or out-of-range configuration."""


def atom_features(graph: MolecularGraph) -> np.ndarray:
    """Per-atom one-hot blocks: element, degree, formal charge, implicit H,
    plus an aromatic flag.  Shape [n_atoms, ATOM_FEAT_DIM]."""
    out = np.zeros((graph.n_atoms, ATOM_FEAT_DIM), dtype=np.float64)
    for i, atom in enumerate(graph.atoms):
        col = 0
        try:
            out[i, col + ELEMENT_SLOTS.index(atom.element)] = 1.0
        except ValueError:
            out[i, col + len(ELEMENT_SLOTS)] = 1.0
        col += len(ELEMENT_SLOTS) + 1
        out[i, col + min(atom.degree, MAX_DEGREE)] = 1.0
        col += MAX_DEGREE + 1
        charge = min(max(atom.formal_charge, CHARGE_RANGE[0]), CHARGE_RANGE[1])
        out[i, col + charge - CHARGE_RANGE[0]] = 1.0
        col += CHARGE_RANGE[1] - CHARGE_RANGE[0] + 1
        out[i, col + min(atom.implicit_h_count, MAX_IMPLICIT_H)] = 1.0
        col += MAX_IMPLICIT_H + 1
        out[i, col] = 1.0 if atom.is_aromatic else 0.0
    return out


def normalized_adjacency(graph: MolecularGraph) -> np.ndarray:
    """Symmetrically normalised adjacency with self loops,
    D^{-1/2} (A + I) D^{-1/2}."""
    a = graph.adjacency().astype(np.float64) + np.eye(graph.n_atoms)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


@dataclass(frozen=True)
class EncoderConfig:
    """Model sizes and the dtype.  The default is the `paper` preset, whose
    weights, Adam moments and compute are float32, with float64
    checkpoints; the `small` preset is float64 throughout."""

    embed_dim: int = 128
    n_filters: int = 128
    max_seq_len: int = 1200
    joint_dim: int = 2304
    gau_hidden: int = 256
    gau_qk_dim: int = 128
    decoder_hidden: int = 512
    dtype: type = np.float32

    def __post_init__(self):
        if self.joint_dim % JOINT_POOL:
            raise ConfigError(f"joint_dim {self.joint_dim} must be divisible by {JOINT_POOL}")

    @property
    def fused_dim(self) -> int:
        """Width of each level vector and of the fused pair representation."""
        return self.joint_dim // JOINT_POOL

    @staticmethod
    def small(**overrides) -> "EncoderConfig":
        """Scaled-down preset for tests and quick synthetic runs."""
        base = dict(
            embed_dim=12,
            n_filters=12,
            max_seq_len=48,
            joint_dim=24,
            gau_hidden=12,
            gau_qk_dim=6,
            decoder_hidden=16,
            dtype=np.float64,
        )
        base.update(overrides)
        return EncoderConfig(**base)


@dataclass
class InteractionOutput:
    """Everything one batched pass produces, a row per pair: the fused pair
    representation `fused` [B, fused_dim], the head's `score` [B] if any,
    and per level the raw bilinear attention weights [B, heads, M, L] that
    `tensor.bilinear_attention` returns, rows over the tower's padded atoms
    and columns over its padded residues, zero on the padded cells."""

    fused: Tensor
    level_weights: list[np.ndarray]
    score: Tensor | None = None


class _BatchNorm:
    """Feature normalization over the rows of each sample.

    A sample's statistics never mix with another's, so a molecule or a
    sequence gets the same features whatever batch it runs in, and
    evaluation normalizes exactly the way training did.  The layer keeps no
    running state: only the learned scale and shift.
    """

    def __init__(self, store: ParameterStore, path: str, dim: int):
        self.gamma = store.parameter(f"{path}/gamma", np.ones(dim))
        self.beta = store.parameter(f"{path}/beta", np.zeros(dim))

    def __call__(self, x: Tensor, mask=None) -> Tensor:
        return T.batch_stat_norm(x, self.gamma, self.beta, mask)


class _Linear:
    """Affine map of the last axis, x[..., fan_in] -> [..., fan_out], as one
    `tensor.matmul` node; with `relu` set the activation is fused in too."""

    def __init__(self, store, path, fan_in, fan_out, rng):
        self.w = store.parameter(
            f"{path}/w", kaiming_uniform(rng, (fan_in, fan_out), fan_in)
        )
        self.b = store.parameter(f"{path}/b", np.zeros(fan_out))

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.matmul(x, self.w, self.b, relu)


class _Scorer:
    """Two-layer scorer, one score per row: x[N, fan_in] -> relu hidden
    layer `{path}/hidden` -> `{path}/out` -> [N].  The encoder's prediction
    head and each domain critic are one."""

    def __init__(self, store, path, fan_in, hidden, rng):
        self.hidden = _Linear(store, f"{path}/hidden", fan_in, hidden, rng)
        self.out = _Linear(store, f"{path}/out", hidden, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return T.reshape(self.out(self.hidden(x, relu=True)), (x.data.shape[0],))


def _scale_shift(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """x[N, d] * scale[d] + shift[d]: one expand each, so each parameter's
    gradient is one sum over the N rows."""
    n = x.data.shape[0]
    return x * T.expand(scale, 0, n) + T.expand(shift, 0, n)


class _SquaredReluScores:
    """Squared-relu attention scores, as in FLASH's gated attention unit
    (Hua et al., 2022): query rows zq[E, n, dim] and key rows zk[E, m, dim],
    each side under its own learned per-feature scale and shift
    (`{path}/q_*`, `{path}/k_*`, starting at a scaled dot product's unit
    scale), give relu(q . k)^2 [E, n, m].  The fusion unit and the
    prototype head each own one."""

    def __init__(self, store, path, dim):
        self.sides = [
            (store.parameter(f"{path}/{s}_scale", np.full(dim, dim**-0.5)),
             store.parameter(f"{path}/{s}_shift", np.zeros(dim)))
            for s in "qk"
        ]

    def __call__(self, zq: Tensor, zk: Tensor) -> Tensor:
        q, k = [
            T.reshape(_scale_shift(T.reshape(z, (-1, z.data.shape[2])), *side), z.data.shape)
            for z, side in zip((zq, zk), self.sides)
        ]
        return T.square(T.bmm(q, T.transpose(k), relu=True))


class _Conv:
    """Same-length convolution along the length axis followed by a relu,
    one `tensor.conv1d_relu` node.  Every convolution of the protein tower
    is activated this way."""

    def __init__(self, store, path, kernel, c_in, c_out, rng):
        self.w = store.parameter(
            f"{path}/w", kaiming_uniform(rng, (kernel, c_in, c_out), kernel * c_in)
        )
        self.b = store.parameter(f"{path}/b", np.zeros(c_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d_relu(x, self.w, self.b)


class DTIEncoder:
    """Registers every parameter it owns in the given store under stable
    path names, so checkpoints and the optimiser see exactly the weights the
    configured variant trains.  The one prediction `head` ("classify",
    "regress" or None for none) is drawn last."""

    def __init__(
        self,
        store: ParameterStore,
        config: EncoderConfig,
        rng: np.random.Generator,
        head: str | None,
    ):
        if store.dtype != config.dtype:
            raise ConfigError(f"a {config.dtype.__name__} encoder needs a store of that dtype")
        self.config = config
        self.store = store
        c = config

        self.embedding = store.parameter(
            "protein/embed", rng.uniform(-0.1, 0.1, size=(VOCAB_SIZE, c.embed_dim))
        )
        self.p_stem = [
            _Conv(store, "protein/stem1", 3, c.embed_dim, c.n_filters, rng),
            _Conv(store, "protein/stem2", 3, c.n_filters, c.n_filters, rng),
        ]
        self.d_stem = [
            _Linear(store, "drug/stem1", ATOM_FEAT_DIM, c.n_filters, rng),
            _Linear(store, "drug/stem2", c.n_filters, c.n_filters, rng),
        ]

        self.p_levels = []
        self.d_levels = []
        for i, k in enumerate(KERNEL_SIZES):
            self.p_levels.append(
                {
                    "ex": _Conv(store, f"protein/level{i}/ex", k, c.n_filters, c.n_filters, rng),
                    "ex_bn": _BatchNorm(store, f"protein/level{i}/ex_bn", c.n_filters),
                    "out": _Conv(store, f"protein/level{i}/out", 1, c.n_filters, c.n_filters, rng),
                    "out_bn": _BatchNorm(store, f"protein/level{i}/out_bn", c.n_filters),
                }
            )
            self.d_levels.append(
                {
                    "ex": _Linear(store, f"drug/level{i}/ex", c.n_filters, c.n_filters, rng),
                    "ex_bn": _BatchNorm(store, f"drug/level{i}/ex_bn", c.n_filters),
                    "out": _Linear(store, f"drug/level{i}/out", c.n_filters, c.n_filters, rng),
                    "out_bn": _BatchNorm(store, f"drug/level{i}/out_bn", c.n_filters),
                }
            )

        self.joint = []
        for i in range(len(KERNEL_SIZES)):
            level = {
                "drug": _Linear(store, f"joint/level{i}/drug", c.n_filters, c.joint_dim, rng),
                "protein": _Linear(store, f"joint/level{i}/protein", c.n_filters, c.joint_dim, rng),
                "q": [
                    store.parameter(
                        f"joint/level{i}/head{t}/q",
                        kaiming_uniform(rng, (c.joint_dim,), c.joint_dim),
                    )
                    for t in range(ATTN_HEADS)
                ],
            }
            self.joint.append(level)

        d = c.fused_dim
        self.gau = {
            "norm_scale": store.parameter("gau/norm_scale", np.ones(d)),
            "norm_shift": store.parameter("gau/norm_shift", np.zeros(d)),
            "gate": _Linear(store, "gau/gate", d, c.gau_hidden, rng),
            "value": _Linear(store, "gau/value", d, c.gau_hidden, rng),
            "shared": _Linear(store, "gau/shared", d, c.gau_qk_dim, rng),
            "scores": _SquaredReluScores(store, "gau", c.gau_qk_dim),
            "out": _Linear(store, "gau/out", c.gau_hidden, d, rng),
        }

        self.head = head
        if head is not None:
            self.head_layers = _Scorer(store, f"head/{head}", c.fused_dim, c.decoder_hidden, rng)

    # -- towers ------------------------------------------------------------

    def protein_levels(self, proteins):
        """Run the residue tower on a batch of (token ids [L], true length)
        windows of one length.  Returns one (features [P, L_i, C],
        real_counts [P]) pair per level; a real count is how many leading
        rows trace back to actual residues rather than padding."""
        self.store.bind()
        ids = np.stack([p_ids for p_ids, _ in proteins])
        real = np.array([n for _, n in proteins])
        x = T.index_select(self.embedding, 0, ids)
        for conv in self.p_stem:
            x = conv(x)
        levels = []
        for spec in self.p_levels:
            ex = spec["ex_bn"](spec["ex"](x))
            x = T.maxpool1d(ex)
            real = -(-real // 2)
            out = spec["out_bn"](spec["out"](x))
            levels.append((out, real))
        return levels

    def drug_levels(self, drugs):
        """Run the graph tower on a batch of (atom features, normalized
        adjacency) molecules, zero-padded to the largest.  Returns the level
        features [D, M, C], pad rows zero, and the atom mask [D, M]."""
        self.store.bind()
        m = max(f.shape[0] for f, _ in drugs)
        feats = np.zeros((len(drugs), m, ATOM_FEAT_DIM), dtype=self.config.dtype)
        adj_norm = np.zeros((len(drugs), m, m), dtype=self.config.dtype)
        mask = np.zeros((len(drugs), m), dtype=bool)
        for j, (f, a) in enumerate(drugs):
            n = f.shape[0]
            feats[j, :n] = f
            adj_norm[j, :n, :n] = a
            mask[j, :n] = True
        adj = Tensor(adj_norm, requires_grad=False)
        h = Tensor(feats, requires_grad=False)
        for lin in self.d_stem:
            h = lin(h, relu=True)
        levels = []
        for spec in self.d_levels:
            h = spec["ex_bn"](T.bmm(adj, spec["ex"](h), relu=True), mask)
            out = spec["out_bn"](T.bmm(adj, spec["out"](h), relu=True), mask)
            levels.append(out)
        return levels, mask

    # -- joint stage ----------------------------------------------------------

    def interact(self, d_levels, d_mask, p_levels, d_idx, p_idx):
        """Joint stage for the pairs (d_idx[b], p_idx[b]) of the given tower
        rows.

        Every given drug row is lifted to the joint width once, and every
        given protein once inside the level's bilinear attention, one op per
        level, so the caller passes only the rows its pairs use.  The lift
        keeps its `joint/level{i}/protein` parameters.  The fusion unit and
        the head, if any, see a row per pair."""
        vectors = []
        weights = []
        for spec, d_out, (p_out, real) in zip(self.joint, d_levels, p_levels):
            v = spec["drug"](d_out, relu=True)
            lift = spec["protein"]
            joint, w = T.bilinear_attention(
                v, p_out, lift.w, lift.b, spec["q"], d_mask, real, d_idx, p_idx
            )
            pooled = T.reshape(joint, (len(d_idx), -1, JOINT_POOL))
            vectors.append(T.tmean(pooled, axis=2))
            weights.append(w)
        out = InteractionOutput(fused=self._fuse(vectors), level_weights=weights)
        if self.head is not None:
            out.score = self.head_layers(out.fused)
        return out

    def _fuse(self, level_vectors: list[Tensor]) -> Tensor:
        """Gated attention over each pair's level vectors [B, n, d]."""
        b, d = level_vectors[0].data.shape
        n = len(level_vectors)
        rows = self._row_norm(T.reshape(T.concat(level_vectors, axis=1), (b * n, d)), d)
        gate = T.silu(self.gau["gate"](rows))
        value = T.silu(self.gau["value"](rows))
        shared = T.reshape(T.silu(self.gau["shared"](rows)), (b, n, self.config.gau_qk_dim))
        attn = self.gau["scores"](shared, shared) * (1.0 / n)
        hidden = self.config.gau_hidden
        mixed = T.bmm(attn, T.reshape(value, (b, n, hidden))) * T.reshape(gate, (b, n, hidden))
        return self.gau["out"](T.tsum(mixed, axis=1))

    def _row_norm(self, x: Tensor, d: int) -> Tensor:
        """Per-row standardisation with a learned scale and shift.  Keeps the
        squared-relu attention well conditioned whatever scale the level
        vectors arrive at."""
        mu = T.expand(T.tmean(x, axis=1), 1, d)
        centred = x - mu
        var = T.expand(T.tmean(T.square(centred), axis=1), 1, d)
        unit = centred / T.sqrt(var + T.NORM_EPS)
        return _scale_shift(unit, self.gau["norm_scale"], self.gau["norm_shift"])


def featurize_drug(graph: MolecularGraph) -> tuple[np.ndarray, np.ndarray]:
    return atom_features(graph), normalized_adjacency(graph)
