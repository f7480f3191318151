"""Interaction dataset loading.

Every CSV carries the columns DRUG_ID_COL, PROTEIN_ID_COL, SMILES_COL and
SEQUENCE_COL, and the label column a CsvSchema names. Rows whose SMILES fail
to parse, whose label does not parse, or whose id is empty or already names
another structure are skipped with their row number recorded; each distinct
SMILES is parsed once per load. A label is BINARY (0 or 1, classification)
or AFFINITY (any finite number, regression).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .smiles import SmilesError, parse_smiles

log = logging.getLogger(__name__)

BINARY = "binary"
AFFINITY = "affinity"

DRUG_ID_COL = "drug_id"
PROTEIN_ID_COL = "protein_id"
SMILES_COL = "smiles"
SEQUENCE_COL = "sequence"


class MissingColumn(KeyError):
    pass


class LabelParseError(ValueError):
    pass


class BadId(ValueError):
    """An empty id, or one that already names another structure."""


@dataclass(frozen=True)
class InteractionRecord:
    drug_id: str
    protein_id: str
    smiles: str
    sequence: str
    label: float


@dataclass
class CsvSchema:
    label_col: str = "label"
    label_kind: str = BINARY


@dataclass
class SkippedRow:
    row: int  # 1-based line number in the file, header included
    reason: str


@dataclass
class LoadResult:
    records: list[InteractionRecord] = field(default_factory=list)
    skipped: list[SkippedRow] = field(default_factory=list)


def _parse_label(raw: str, kind: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise LabelParseError(f"label {raw!r} is not numeric") from None
    if not math.isfinite(value):
        raise LabelParseError(f"label {raw!r} is not finite")
    if kind == BINARY and value not in (0.0, 1.0):
        raise LabelParseError(f"binary label must be 0 or 1, got {raw!r}")
    return value


def _row_id(row: dict, col: str, structure: str, named: dict[str, str]) -> str:
    """The row's id in column `col`.  An id names the structure (SMILES or
    sequence) of the first row loaded with it."""
    ident = (row[col] or "").strip()
    if not ident:
        raise BadId(f"empty {col}")
    if named.get(ident, structure) != structure:
        raise BadId(f"{col} {ident!r} already names {named[ident]!r}")
    return ident


def load_interactions_detailed(path: str | Path, schema: CsvSchema | None = None) -> LoadResult:
    """Load interaction records from a CSV file.

    Every row's SMILES passes a parse as a validation gate (oversized
    molecules are rejected here, not truncated downstream); the parse runs
    once per distinct string. Bad rows are returned in ``skipped``, each
    with its own line.
    """
    schema = schema or CsvSchema()
    result = LoadResult()
    smiles_of: dict[str, str] = {}  # id -> the structure it names
    sequence_of: dict[str, str] = {}
    parsed: dict[str, SmilesError | None] = {}  # SMILES -> its parse error, if any
    # one reading on every locale, and a leading byte-order mark dropped
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (SMILES_COL, SEQUENCE_COL, schema.label_col, DRUG_ID_COL, PROTEIN_ID_COL):
            if col not in header:
                raise MissingColumn(f"column {col!r} not in {header}")
        for row in reader:
            line = reader.line_num
            smiles = (row[SMILES_COL] or "").strip()
            sequence = (row[SEQUENCE_COL] or "").strip().upper()
            try:
                if not sequence:
                    raise LabelParseError("empty protein sequence")
                if smiles not in parsed:
                    try:
                        parse_smiles(smiles)
                        parsed[smiles] = None
                    except SmilesError as exc:
                        parsed[smiles] = exc
                if parsed[smiles] is not None:
                    raise parsed[smiles].with_traceback(None)  # no growing traceback
                label = _parse_label(row[schema.label_col], schema.label_kind)
                drug_id = _row_id(row, DRUG_ID_COL, smiles, smiles_of)
                protein_id = _row_id(row, PROTEIN_ID_COL, sequence, sequence_of)
            except (SmilesError, LabelParseError, BadId) as exc:
                result.skipped.append(SkippedRow(row=line, reason=str(exc)))
                continue
            smiles_of.setdefault(drug_id, smiles)
            sequence_of.setdefault(protein_id, sequence)
            result.records.append(
                InteractionRecord(
                    drug_id=drug_id,
                    protein_id=protein_id,
                    smiles=smiles,
                    sequence=sequence,
                    label=label,
                )
            )
    for sk in result.skipped:
        log.warning("skipped row %d: %s", sk.row, sk.reason)
    return result


def load_interactions(path: str | Path) -> list[InteractionRecord]:
    """The records of a CSV in the default schema: binary labels in `label`."""
    return load_interactions_detailed(path).records
