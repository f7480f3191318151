"""Two-tower interaction encoder.

A protein tower (1-d convolutions over residue embeddings) and a drug tower
(graph convolutions over atom features) each emit three feature maps at
increasing receptive field.  Every level is joined by a bilinear attention
step that produces one fixed-width vector per level, and a small gated
attention unit fuses the three vectors into the final pair representation
that the prediction heads and any downstream objective consume.

Design notes that matter for correctness:

* The protein tower halves its length after every level (max pool of 2), so
  level masks must be recomputed from the true residue count as lengths
  shrink.  Positions past the mask get their attention column forced to
  zero; convolution bleed across the boundary is tolerated because the pad
  embedding is a learned constant.
* The drug tower never pools its atom axis: atom order is an artifact of
  the input writing, so a positional pool would change results under
  renumbering.  Both the extraction chain and the per-level output branch
  are graph convolutions over the full normalised adjacency, keeping every
  level output permutation equivariant and every attention row attributable
  to one atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .optim import ParameterStore, kaiming_uniform
from .proteins import VOCAB_SIZE
from .smiles import MolecularGraph
from .tensor import Tensor

PAD_MASK_BIAS = -1e30

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
    embed_dim: int = 128
    n_filters: int = 128
    kernel_sizes: tuple[int, ...] = (3, 6, 9)
    max_seq_len: int = 1200
    attn_heads: int = 2
    joint_dim: int = 2304
    joint_pool: int = 3
    gau_hidden: int = 256
    gau_qk_dim: int = 128
    decoder_hidden: int = 512
    use_gau: bool = True

    def __post_init__(self):
        if self.joint_dim % self.joint_pool:
            raise ConfigError(
                f"joint_dim {self.joint_dim} must be divisible by "
                f"joint_pool {self.joint_pool}"
            )
        if len(self.kernel_sizes) < 1:
            raise ConfigError("need at least one tower level")

    @property
    def n_levels(self) -> int:
        return len(self.kernel_sizes)

    @property
    def fused_dim(self) -> int:
        """Width of each level vector and of the fused pair representation."""
        return self.joint_dim // self.joint_pool

    @staticmethod
    def small(**overrides) -> "EncoderConfig":
        """Scaled-down preset for tests and quick synthetic runs."""
        base = dict(
            embed_dim=12,
            n_filters=12,
            kernel_sizes=(3, 6, 9),
            max_seq_len=48,
            attn_heads=2,
            joint_dim=24,
            joint_pool=3,
            gau_hidden=12,
            gau_qk_dim=6,
            decoder_hidden=16,
        )
        base.update(overrides)
        return EncoderConfig(**base)


@dataclass
class InteractionOutput:
    """Everything one forward pass produces.

    `attention` is empty unless the pass was asked for it; then it holds,
    per level, a detached [heads, drug_rows, real_protein_cols] array of the
    bilinear attention weights (pad columns already cropped)."""

    fused: Tensor
    level_vectors: list[Tensor]
    attention: list[np.ndarray] = field(default_factory=list)
    logit: Tensor | None = None
    value: Tensor | None = None


def _same_padding(kernel: int) -> tuple[int, int]:
    left = (kernel - 1) // 2
    return left, kernel - 1 - left


class _BatchNorm:
    """Feature normalization over the rows of one sample.

    The towers run one molecule or sequence at a time, so the statistics are
    always per-sample, and evaluation must normalize exactly the way training
    did or the downstream attention sees a different function.  Both
    therefore use the sample's own row statistics, and the layer keeps no
    running state: only the learned scale and shift.
    """

    def __init__(self, store: ParameterStore, path: str, dim: int):
        self.gamma = store.parameter(f"{path}/gamma", np.ones(dim))
        self.beta = store.parameter(f"{path}/beta", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.batch_stat_norm(x, self.gamma, self.beta)


class _Linear:
    def __init__(self, store, path, fan_in, fan_out, rng):
        self.w = store.parameter(
            f"{path}/w", kaiming_uniform(rng, (fan_in, fan_out), fan_in)
        )
        self.b = store.parameter(f"{path}/b", np.zeros(fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.add_bias(T.matmul(x, self.w), self.b)


class _Conv:
    def __init__(self, store, path, kernel, c_in, c_out, rng):
        self.w = store.parameter(
            f"{path}/w", kaiming_uniform(rng, (kernel, c_in, c_out), kernel * c_in)
        )
        self.b = store.parameter(f"{path}/b", np.zeros(c_out))
        self.padding = _same_padding(kernel)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.w, self.b, padding=self.padding)


class DTIEncoder:
    """Registers every parameter it owns in the given store under stable
    path names, so checkpoints and the optimiser see exactly the weights the
    configured variant trains."""

    def __init__(
        self,
        store: ParameterStore,
        config: EncoderConfig,
        rng: np.random.Generator,
        heads: tuple[str, ...] = ("classify",),
    ):
        self.store = store
        self.config = config
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
        for i, k in enumerate(c.kernel_sizes):
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
        for i in range(c.n_levels):
            level = {
                "drug": _Linear(store, f"joint/level{i}/drug", c.n_filters, c.joint_dim, rng),
                "protein": _Linear(store, f"joint/level{i}/protein", c.n_filters, c.joint_dim, rng),
                "q": [
                    store.parameter(
                        f"joint/level{i}/head{t}/q",
                        kaiming_uniform(rng, (c.joint_dim,), c.joint_dim),
                    )
                    for t in range(c.attn_heads)
                ],
            }
            self.joint.append(level)

        if c.use_gau:
            d = c.fused_dim
            self.gau = {
                "norm_scale": store.parameter("gau/norm_scale", np.ones(d)),
                "norm_shift": store.parameter("gau/norm_shift", np.zeros(d)),
                "gate": _Linear(store, "gau/gate", d, c.gau_hidden, rng),
                "value": _Linear(store, "gau/value", d, c.gau_hidden, rng),
                "shared": _Linear(store, "gau/shared", d, c.gau_qk_dim, rng),
                # start the squared-relu attention at unit scale, like a
                # scaled dot product; the scales stay trainable
                "q_scale": store.parameter(
                    "gau/q_scale", np.full(c.gau_qk_dim, c.gau_qk_dim**-0.5)
                ),
                "q_shift": store.parameter("gau/q_shift", np.zeros(c.gau_qk_dim)),
                "k_scale": store.parameter(
                    "gau/k_scale", np.full(c.gau_qk_dim, c.gau_qk_dim**-0.5)
                ),
                "k_shift": store.parameter("gau/k_shift", np.zeros(c.gau_qk_dim)),
                "out": _Linear(store, "gau/out", c.gau_hidden, d, rng),
            }
        else:
            self.gau = None

        self.heads = {}
        for name in heads:
            self.heads[name] = (
                _Linear(store, f"head/{name}/hidden", c.fused_dim, c.decoder_hidden, rng),
                _Linear(store, f"head/{name}/out", c.decoder_hidden, 1, rng),
            )

    # -- towers ------------------------------------------------------------

    def protein_levels(self, ids: np.ndarray, true_length: int):
        """Run the residue tower.  Returns one (features, real_count) pair per
        level; `real_count` is how many leading rows trace back to actual
        residues rather than padding."""
        x = T.embedding_lookup(self.embedding, ids)
        for conv in self.p_stem:
            x = T.relu(conv(x))
        real = min(true_length, ids.shape[0])
        levels = []
        for spec in self.p_levels:
            ex = spec["ex_bn"](T.relu(spec["ex"](x)))
            x = T.maxpool1d(ex, 2)
            real = -(-real // 2)
            out = spec["out_bn"](T.relu(spec["out"](x)))
            levels.append((out, real))
        return levels

    def drug_levels(self, feats: np.ndarray, adj_norm: np.ndarray):
        adj = Tensor(adj_norm, requires_grad=False)
        h = Tensor(feats, requires_grad=False)
        for lin in self.d_stem:
            h = T.relu(lin(h))
        levels = []
        for spec in self.d_levels:
            h = spec["ex_bn"](T.relu(T.matmul(adj, spec["ex"](h))))
            out = spec["out_bn"](T.relu(T.matmul(adj, spec["out"](h))))
            levels.append(out)
        return levels

    # -- level fusion --------------------------------------------------------

    def lift_protein(self, p_levels):
        """Lift each protein tower level to the joint width, keeping its real
        row count.  A protein's lifted maps serve every drug it pairs with."""
        return [
            (T.relu(spec["protein"](out)), real)
            for spec, (out, real) in zip(self.joint, p_levels)
        ]

    def _joint_vector(self, level: int, drug_out: Tensor, u: Tensor, real_cols: int,
                      attention: bool):
        """Bilinear attention over one level pair.

        The drug side is lifted to the joint width (`u` is the lifted
        protein), every (atom-row, residue) cell gets a per-head bilinear
        score, and the softmax-weighted product is summed into a single
        joint vector.  Columns past `real_cols` are masked out before the
        softmax.  The per-head maps are copied out only when `attention`."""
        spec = self.joint[level]
        v = T.relu(spec["drug"](drug_out))
        m = v.data.shape[0]
        l = u.data.shape[0]
        mask = np.zeros(l)
        mask[real_cols:] = PAD_MASK_BIAS
        mask_bias = Tensor(mask, requires_grad=False)
        u_t = T.transpose(u)

        joint = None
        maps = []
        for q in spec["q"]:
            scores = T.matmul(v * T.expand(q, 0, m), u_t)
            scores = T.add_bias(scores, mask_bias)
            attn = T.reshape(T.softmax(T.reshape(scores, (1, m * l)), axis=1), (m, l))
            head = T.tsum(v * T.matmul(attn, u), axis=0)
            joint = head if joint is None else joint + head
            if attention:
                maps.append(attn.data[:, :real_cols].copy())
        return T.avgpool1d(joint, self.config.joint_pool), maps

    def _fuse(self, level_vectors: list[Tensor]) -> Tensor:
        if self.gau is None:
            fused = level_vectors[0]
            for f in level_vectors[1:]:
                fused = fused + f
            return fused
        d = self.config.fused_dim
        n = len(level_vectors)
        stack = T.concat([T.reshape(f, (1, d)) for f in level_vectors], axis=0)
        stack = self._row_norm(stack, n, d)
        gate = T.silu(self.gau["gate"](stack))
        value = T.silu(self.gau["value"](stack))
        shared = T.silu(self.gau["shared"](stack))
        q = shared * T.expand(self.gau["q_scale"], 0, n) + T.expand(self.gau["q_shift"], 0, n)
        k = shared * T.expand(self.gau["k_scale"], 0, n) + T.expand(self.gau["k_shift"], 0, n)
        attn = T.square(T.relu(T.matmul(q, T.transpose(k)))) * (1.0 / n)
        mixed = T.matmul(attn, value) * gate
        pooled = T.reshape(T.tsum(mixed, axis=0), (1, self.gau["out"].w.data.shape[0]))
        return T.reshape(self.gau["out"](pooled), (d,))

    def _row_norm(self, x: Tensor, n: int, d: int) -> Tensor:
        """Per-row standardisation with a learned scale and shift.  Keeps the
        squared-relu attention well conditioned whatever scale the level
        vectors arrive at."""
        mu = T.expand(T.tmean(x, axis=1), 1, d)
        centred = x - mu
        var = T.expand(T.tmean(T.square(centred), axis=1), 1, d)
        unit = centred / T.sqrt(var + 1e-5)
        return unit * T.expand(self.gau["norm_scale"], 0, n) + T.expand(
            self.gau["norm_shift"], 0, n
        )

    def _head(self, name: str, fused: Tensor) -> Tensor:
        hidden_lin, out_lin = self.heads[name]
        h = T.relu(hidden_lin(T.reshape(fused, (1, self.config.fused_dim))))
        return T.reshape(out_lin(h), (1,))

    # -- public forward -------------------------------------------------------

    def forward(
        self,
        drug: tuple[np.ndarray, np.ndarray],
        protein: tuple[np.ndarray, int],
        head: str | None = "classify",
        attention: bool = False,
    ) -> InteractionOutput:
        """End-to-end pass for one drug/protein pair: towers, protein lift,
        joint stage.

        `drug` is (atom_features, normalized_adjacency); `protein` is
        (token ids, true residue count)."""
        d_levels = self.drug_levels(drug[0], drug[1])
        p_levels = self.protein_levels(protein[0], protein[1])
        return self.interact(d_levels, self.lift_protein(p_levels), head, attention)

    def interact(self, d_levels, lifted_p, head: str | None = "classify",
                 attention: bool = False):
        """Joint stage on drug tower outputs and lifted protein levels
        (`lift_protein`).  Splitting this off lets a batch loop run each
        unique molecule's tower, and each unique sequence's tower and lift,
        once."""
        vectors = []
        maps = []
        for i, (d_out, (u, real)) in enumerate(zip(d_levels, lifted_p)):
            f, level_maps = self._joint_vector(i, d_out, u, real, attention)
            vectors.append(f)
            if attention:
                maps.append(np.stack(level_maps))
        fused = self._fuse(vectors)
        out = InteractionOutput(fused=fused, level_vectors=vectors, attention=maps)
        if head == "classify":
            out.logit = self._head("classify", fused)
        elif head == "regress":
            out.value = self._head("regress", fused)
        elif head is not None:
            raise KeyError(f"unknown head {head!r}")
        return out


def featurize_drug(graph: MolecularGraph) -> tuple[np.ndarray, np.ndarray]:
    return atom_features(graph), normalized_adjacency(graph)
