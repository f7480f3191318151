import struct

import numpy as np
import pytest

from dtikit import tensor as T
from dtikit.encoder import (
    ATOM_FEAT_DIM,
    DTIEncoder,
    EncoderConfig,
    atom_features,
    featurize_drug,
    normalized_adjacency,
)
from dtikit.optim import ParameterStore, read_checkpoint
from dtikit.proteins import encode_protein
from dtikit.rng import substream
from dtikit.smiles import parse_smiles


CFG = EncoderConfig.small()


def build(seed=0, heads=("classify",), config=CFG):
    store = ParameterStore()
    enc = DTIEncoder(store, config, substream(seed, "init"), heads=heads)
    return store, enc


def aspirin_inputs():
    graph = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    prot = encode_protein("ACDEFGHIKLMNPQRSTVWY", max_len=CFG.max_seq_len)
    return featurize_drug(graph), (prot.ids, prot.true_length)


# -- featurization -------------------------------------------------------------


def test_atom_feature_layout():
    graph = parse_smiles("c1ccccc1[NH3+]")
    feats = atom_features(graph)
    assert feats.shape == (7, ATOM_FEAT_DIM)
    # ring carbons: aromatic flag set, element slot 0 hot
    assert feats[0, 0] == 1.0
    assert feats[0, -1] == 1.0
    # charged nitrogen: slot 1, charge +1, three hydrogens, not aromatic
    n = feats[6]
    assert n[1] == 1.0
    assert n[-1] == 0.0
    charge_block = n[17:22]
    assert list(charge_block) == [0, 0, 0, 1, 0]
    # every one-hot block sums to one
    assert np.all(feats[:, :11].sum(axis=1) == 1)
    assert np.all(feats[:, 11:17].sum(axis=1) == 1)


def test_normalized_adjacency_ethane():
    adj = normalized_adjacency(parse_smiles("CC"))
    assert np.allclose(adj, 0.5)
    ring = normalized_adjacency(parse_smiles("C1CC1"))
    assert np.allclose(ring, ring.T)
    assert np.allclose(ring.sum(axis=1), 1.0)  # 3-regular with self loops


# -- tower geometry -------------------------------------------------------------


def test_protein_level_lengths_and_masks():
    store, enc = build()
    prot = encode_protein("A" * 20, max_len=48)
    levels = enc.protein_levels(prot.ids, prot.true_length)
    shapes = [tuple(out.data.shape) for out, _ in levels]
    reals = [real for _, real in levels]
    assert shapes == [(24, CFG.n_filters), (12, CFG.n_filters), (6, CFG.n_filters)]
    assert reals == [10, 5, 3]


def test_drug_level_rows_follow_atom_count():
    store, enc = build()
    for smiles, n in [("CCO", 3), ("CC(=O)Oc1ccccc1C(=O)O", 13), ("C", 1)]:
        feats, adj = featurize_drug(parse_smiles(smiles))
        levels = enc.drug_levels(feats, adj)
        assert all(out.data.shape == (n, CFG.n_filters) for out in levels)


def test_drug_levels_are_permutation_equivariant():
    store, enc = build(seed=21)
    graph = parse_smiles("CC(C)Cc1ccc(O)cc1")
    feats, adj = featurize_drug(graph)
    perm = np.random.default_rng(3).permutation(graph.n_atoms)
    base = enc.drug_levels(feats, adj)
    moved = enc.drug_levels(feats[perm], adj[np.ix_(perm, perm)])
    for b, m in zip(base, moved):
        assert np.allclose(b.data[perm], m.data, atol=1e-10)


# -- gradients -------------------------------------------------------------------


def test_every_parameter_gets_gradient():
    store, enc = build()
    drug, prot = aspirin_inputs()
    out = enc.forward(drug, prot)
    loss = T.tmean(T.bce_with_logits(out.logit, np.array([1.0])))
    loss.backward()
    for path in store.paths():
        p = store[path]
        if p.requires_grad:
            assert p.grad is not None, path
            assert np.any(p.grad != 0.0), path


CHECK_PATHS = [
    "protein/embed",
    "protein/stem1/w",
    "protein/level0/ex/w",
    "protein/level1/ex_bn/gamma",
    "protein/level2/out/b",
    "drug/stem1/w",
    "drug/level0/ex/w",
    "drug/level2/out/w",
    "joint/level0/drug/w",
    "joint/level1/head1/q",
    "joint/level2/protein/b",
    "gau/shared/w",
    "gau/q_scale",
    "gau/norm_scale",
    "gau/out/w",
    "head/classify/hidden/w",
    "head/classify/out/b",
]


def test_directional_gradcheck_through_full_forward():
    store, enc = build(seed=3)
    drug, prot = aspirin_inputs()

    def loss_value():
        out = enc.forward(drug, prot)
        return T.tmean(T.bce_with_logits(out.logit, np.array([1.0])))

    loss = loss_value()
    loss.backward()
    grads = {path: store[path].grad.copy() for path in CHECK_PATHS}

    rng = np.random.default_rng(11)
    h = 1e-6
    for path in CHECK_PATHS:
        p = store[path]
        direction = rng.normal(size=p.data.shape)
        base = p.data.copy()
        p.data[...] = base + h * direction
        up = float(loss_value().data)
        p.data[...] = base - h * direction
        down = float(loss_value().data)
        p.data[...] = base
        numeric = (up - down) / (2 * h)
        analytic = float(np.sum(grads[path] * direction))
        tol = 1e-4 * max(abs(numeric), abs(analytic)) + 1e-10
        assert abs(numeric - analytic) <= tol, path


# -- structural invariances ---------------------------------------------------------


def test_atom_permutation_leaves_output_unchanged():
    store, enc = build(seed=5)
    graph = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    feats, adj = featurize_drug(graph)
    prot = encode_protein("MKTAYIAKQRQISFVKSHFSRQ", max_len=CFG.max_seq_len)
    base = enc.forward((feats, adj), (prot.ids, prot.true_length))

    perm = np.random.default_rng(7).permutation(graph.n_atoms)
    permuted = enc.forward(
        (feats[perm], adj[np.ix_(perm, perm)]), (prot.ids, prot.true_length)
    )
    assert np.allclose(base.fused.data, permuted.fused.data, atol=1e-9)
    assert np.allclose(base.logit.data, permuted.logit.data, atol=1e-9)


def test_attention_mass_stays_on_real_residues():
    store, enc = build()
    drug, (ids, true_len) = aspirin_inputs()
    out = enc.forward(drug, (ids, true_len))
    for level, maps in enumerate(out.attention):
        # maps are cropped to the real columns; if masking works, each head's
        # softmax mass lives entirely inside the crop
        per_head = maps.sum(axis=(1, 2))
        assert np.allclose(per_head, 1.0, atol=1e-9), level
        assert maps.shape[2] == out.level_lengths[level]


def test_variant_without_fusion_unit():
    cfg = EncoderConfig.small(use_gau=False)
    store, enc = build(config=cfg)
    assert not any(p.startswith("gau/") for p in store.paths())
    drug, prot = aspirin_inputs()
    out = enc.forward(drug, prot)
    assert np.allclose(
        out.fused.data, sum(v.data for v in out.level_vectors), atol=1e-12
    )


def test_head_registration_is_gated():
    store, _ = build(heads=("classify",))
    assert not any(p.startswith("head/regress") for p in store.paths())
    store2, enc2 = build(heads=("regress",))
    drug, prot = aspirin_inputs()
    out = enc2.forward(drug, prot, head="regress")
    assert out.value is not None and out.logit is None
    with pytest.raises(KeyError):
        enc2.forward(drug, prot, head="mystery")


# -- persistence and determinism ------------------------------------------------------


def test_same_seed_same_outputs():
    drug, prot = aspirin_inputs()
    _, enc_a = build(seed=9)
    _, enc_b = build(seed=9)
    a = enc_a.forward(drug, prot)
    b = enc_b.forward(drug, prot)
    assert np.array_equal(a.logit.data, b.logit.data)


def test_checkpoint_restores_forward_bitwise(tmp_path):
    drug, prot = aspirin_inputs()
    store_a, enc_a = build(seed=1)
    want = enc_a.forward(drug, prot).logit.data.copy()
    path = tmp_path / "enc.ckpt"
    store_a.save(path)

    store_b, enc_b = build(seed=2)
    assert not np.array_equal(enc_b.forward(drug, prot).logit.data, want)
    store_b.load(path)
    assert np.array_equal(enc_b.forward(drug, prot).logit.data, want)


def _legacy_blob(store) -> bytes:
    """The store's checkpoint plus the running mean/var entries (flag byte 0)
    that every normalization layer used to write."""
    entries = [(p, store[p].data, 1) for p in store.paths()]
    for p in store.paths():
        if p.endswith("_bn/gamma"):
            layer = p[: -len("/gamma")]
            dim = store[p].data.shape[0]
            entries += [(f"{layer}/mean", np.zeros(dim), 0), (f"{layer}/var", np.ones(dim), 0)]
    chunks = [b"DTK1", struct.pack("<II", 1, len(entries))]
    for path, arr, flag in entries:
        raw = path.encode()
        arr = np.asarray(arr, dtype="<f8")
        chunks += [struct.pack("<I", len(raw)), raw, struct.pack("<BI", flag, arr.ndim),
                   struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.tobytes()]
    return b"".join(chunks)


def test_checkpoint_with_normalization_buffers_loads_strictly():
    drug, prot = aspirin_inputs()
    store_a, enc_a = build(seed=1)
    blob = _legacy_blob(store_a)
    assert len(read_checkpoint(blob)) == len(store_a.paths()) + 24
    store_b, enc_b = build(seed=2)
    assert sorted(store_b.load_bytes(blob, strict=True)) == sorted(store_a.paths())
    assert np.array_equal(enc_b.forward(drug, prot).logit.data,
                          enc_a.forward(drug, prot).logit.data)
    assert store_b.save_bytes() == store_a.save_bytes()
