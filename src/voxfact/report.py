"""Structured pass/fail reports for axiom and model checks."""
from __future__ import annotations

import json

from .records import Record


class CheckReport(Record):
    __slots__ = ("axiom", "passed", "max_err", "tol", "witness", "truncation")

    def __init__(self, axiom: str, passed: bool, max_err: float = 0.0,
                 tol: float = 0.0, witness=None, truncation=None):
        self.axiom = axiom
        self.passed = passed
        self.max_err = max_err
        self.tol = tol
        self.witness = {} if witness is None else witness
        self.truncation = {} if truncation is None else truncation

    def to_obj(self):
        return {"axiom": self.axiom, "pass": self.passed,
                "max_err": self.max_err, "tol": self.tol,
                "witness": self.witness, "truncation": self.truncation}

    def to_json(self, **kw):
        return json.dumps(self.to_obj(), sort_keys=True, **kw)
