"""Exploit classification: CVSS privilege extraction, prompt assembly, and
an endpoint-agnostic LLM client, plus weighted evaluation of predictions.

The deterministic parts (prompt bytes, CVSS parsing, metrics) are fully
testable offline; only ``HttpLlmEndpoint`` talks to the network.
"""
from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Protocol as TypingProtocol

from .catalog import (
    ExploitClass,
    ExploitRecord,
    ExploitType,
    PrivilegeLevel,
    all_classes,
    class_name,
    cpe_to_string,
    parse_class_name,
    record_to_dict,
)
from .errors import (
    EndpointError,
    MalformedVector,
    MissingDescription,
    MissingTruth,
    UnknownClass,
    UnparseableReply,
)

logger = logging.getLogger(__name__)

_METRIC_RE = re.compile(r"^[A-Za-z]{1,4}:[A-Za-z0-9.]+$")
_PR_TO_LEVEL = {"N": PrivilegeLevel.NONE, "L": PrivilegeLevel.LOW, "H": PrivilegeLevel.HIGH}


# --- CVSS vectors ------------------------------------------------------------

@dataclass(frozen=True)
class CvssVector:
    raw: str
    version: str  # "2.0", "3.0" or "3.1"
    metrics: tuple[tuple[str, str], ...]

    def metric(self, code: str) -> str | None:
        for key, value in self.metrics:
            if key == code:
                return value
        return None

    def reserialize(self) -> str:
        body = "/".join(f"{k}:{v}" for k, v in self.metrics)
        if self.version.startswith("3"):
            return f"CVSS:{self.version}/{body}"
        return body


def parse_cvss(raw: str) -> CvssVector:
    """Parse a CVSS 2.0/3.0/3.1 vector string into its metric pairs."""
    text = raw.strip()
    if not text:
        raise MalformedVector("empty vector")
    version = "2.0"
    body = text
    if text.upper().startswith("CVSS:"):
        head, _, body = text.partition("/")
        version = head.split(":", 1)[1]
        if version not in ("2.0", "3.0", "3.1"):
            raise MalformedVector(f"unsupported CVSS version {version!r} in {raw!r}")
    metrics = []
    seen = set()
    for token in body.split("/"):
        if not _METRIC_RE.match(token):
            raise MalformedVector(f"bad metric token {token!r} in {raw!r}")
        key, _, value = token.partition(":")
        if key in seen:
            raise MalformedVector(f"duplicate metric {key!r} in {raw!r}")
        seen.add(key)
        metrics.append((key, value))
    if not metrics:
        raise MalformedVector(f"no metrics in {raw!r}")
    has_pr = any(k == "PR" for k, _ in metrics)
    if version.startswith("3") and not has_pr:
        raise MalformedVector(f"v{version} vector lacks PR metric: {raw!r}")
    if version == "2.0" and has_pr:
        raise MalformedVector(f"v2 vector carries a PR metric: {raw!r}")
    return CvssVector(raw=text, version=version, metrics=tuple(metrics))


def extract_required_privilege(vectors: Iterable[str | CvssVector]) -> PrivilegeLevel | None:
    """Required privilege from the first v3.x vector's PR metric, if any.

    v2 vectors carry no PR metric and are ignored; unparseable strings are
    skipped with a warning rather than failing the whole extraction.
    """
    for item in vectors:
        try:
            vector = item if isinstance(item, CvssVector) else parse_cvss(item)
        except MalformedVector as exc:
            logger.warning("skipping CVSS vector: %s", exc)
            continue
        if not vector.version.startswith("3"):
            continue
        pr = vector.metric("PR")
        if pr is None:
            continue
        level = _PR_TO_LEVEL.get(pr.upper())
        if level is None:
            logger.warning("skipping CVSS vector with PR=%r: %s", pr, vector.raw)
            continue
        return level
    return None


# --- prompt assembly ----------------------------------------------------------

_PRIVILEGE_DEFINITIONS = """\
Here is the definition of each type of privilege and keywords to help guide you in your classification.
    no privileges: Can only send network traffic to listening services on the host. Unauthenticated user.
        - unauthenticated
        - no privileges
        - unauthenticated user
    low privileges: Authenticated user with non-admin privileges.
        - user level
        - non-admin
        - authenticated
    high privileges: Authenticated user with admin level privileges. Almost all services on a remote host can be assumed to be running with high privileges.
        - admin
        - arbitrary code execution
        - authenticated
    root privileges: Privileged user with root or SYSTEM level privileges. If no mention of root or SYSTEM level privileges are present, do not assume root privileges.
        - root
        - SYSTEM"""

_LEVEL_WORD = {
    PrivilegeLevel.NONE: "no",
    PrivilegeLevel.LOW: "low",
    PrivilegeLevel.HIGH: "high",
    PrivilegeLevel.ROOT: "root",
}


def _class_description(c: ExploitClass) -> str:
    req = _LEVEL_WORD[c.required]
    acq = _LEVEL_WORD[c.acquired]
    if c.exploit_type is ExploitType.PE:
        return (
            f"{class_name(c)}: A privilege escalation exploit that requires {req} privileges "
            f"and obtains {acq} privileges. This exploit runs locally on a single host."
        )
    return (
        f"{class_name(c)}: A remote code execution exploit over the {c.protocol.value} protocol. "
        f"Given an agent with {req} privileges on a remote host, obtains {acq} privileges "
        f"on the remote host."
    )


def system_prompt() -> str:
    """The full system prompt: task statement, privilege definitions, all 15 classes."""
    lines = [
        "You are a tool for cybersecurity experts. When given a description of an exploit,",
        "you should classify it into one of the following classes. Use the descriptions of",
        "each class to help guide you.",
        "ONLY return the name of the class with no other text and no explanation.",
        "",
        _PRIVILEGE_DEFINITIONS,
        "",
    ]
    lines.extend(_class_description(c) for c in all_classes())
    return "\n".join(lines)


@dataclass(frozen=True)
class FewShotExample:
    human_text: str
    label: str

    def __post_init__(self):
        parse_class_name(self.label)


FewShotSet = tuple[FewShotExample, ...]


def default_few_shots() -> FewShotSet:
    """The six packaged few-shot examples."""
    data = json.loads(
        resources.files("chainplan.data").joinpath("few_shot.json").read_text("utf-8")
    )
    shots = tuple(
        FewShotExample(human_text=e["human"], label=e["label"]) for e in data["examples"]
    )
    if len(shots) != 6:
        raise ValueError(f"few-shot set must contain exactly 6 examples, got {len(shots)}")
    return shots


@dataclass(frozen=True)
class PromptBundle:
    """Deterministic prompt: system text, six few-shot pairs, and the target."""

    system_text: str
    few_shot: tuple[tuple[str, str], ...]
    target_text: str

    def as_messages(self) -> list[dict]:
        messages = [{"role": "system", "content": self.system_text}]
        for human, label in self.few_shot:
            messages.append({"role": "user", "content": human})
            messages.append({"role": "assistant", "content": label})
        messages.append({"role": "user", "content": self.target_text})
        return messages

    def render_text(self) -> str:
        """Canonical transcript rendering, used for golden-file comparisons."""
        parts = [f"System: {self.system_text}\n"]
        for human, label in self.few_shot:
            parts.append(f"Human: {human}\nAI: {label}\n")
        parts.append(f"Human: {self.target_text}\nAI:")
        return "\n".join(parts)


def render_record(record: ExploitRecord) -> str:
    """Render a record into the three ordered prompt sections."""
    lines = ["Exploit Description:", record.description, "", "CVE Descriptions:"]
    for cve_id, text in zip(record.cve_ids, record.cve_descriptions):
        lines.append(cve_id)
        lines.append(text)
    lines.append("")
    lines.append("Vulnerable Versions:")
    for cpe in record.vulnerable_configs:
        lines.append(cpe_to_string(cpe))
    return "\n".join(lines)


def build_prompt(record: ExploitRecord, shots: FewShotSet) -> PromptBundle:
    """Assemble the classification prompt; byte-deterministic for equal inputs."""
    if not record.description.strip():
        raise MissingDescription(f"record {record.id!r} has no description")
    if len(shots) != 6:
        raise ValueError(f"expected exactly 6 few-shot examples, got {len(shots)}")
    return PromptBundle(
        system_text=system_prompt(),
        few_shot=tuple((shot.human_text, shot.label) for shot in shots),
        target_text=render_record(record),
    )


# --- LLM endpoint -------------------------------------------------------------

class LlmEndpoint(TypingProtocol):
    """Anything that can answer a chat transcript with a text reply."""

    model: str

    def complete(self, messages: list[dict]) -> str: ...


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Follow no redirect: a 3xx reply reaches the caller as an ``HTTPError``."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class HttpLlmEndpoint:
    """Chat-completions-style JSON-over-HTTP client (vendor-neutral).

    Temperature is pinned to 0 and replies capped at 16 tokens: the task
    expects a single label. Built on ``urllib``: TLS verifies against the
    system CA store, and proxies come from ``HTTP(S)_PROXY``. No redirect is
    followed, so the key and the messages go to ``endpoint``'s host only.
    """

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 timeout_s: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout_s = timeout_s

    def complete(self, messages: list[dict]) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": 0,
            "max_tokens": 16,
        }
        body = json.dumps(payload).encode("utf-8")
        try:
            status, reply = self._post(body, headers)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # OSError covers URLError and timeouts; ValueError a URL that is not http(s)
            raise EndpointError(f"request to {self.endpoint} failed: {exc}") from exc
        if status != 200:
            raise EndpointError(f"endpoint returned HTTP {status}: "
                                f"{reply.decode('utf-8', 'replace')[:200]}")
        try:
            return json.loads(reply)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointError(f"unexpected endpoint response shape: {exc}") from exc

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        """POST ``body``; the status and reply bytes, whatever the status."""
        request = urllib.request.Request(self.endpoint, data=body, headers=headers,
                                         method="POST")
        if request.type not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme {request.type!r}")
        opener = urllib.request.build_opener(_NoRedirect)
        try:
            with opener.open(request, timeout=self.timeout_s) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()


_RETRY_INSTRUCTION = (
    "That is not a valid class name. Reply with exactly one of the listed "
    "class names and nothing else."
)


@dataclass(frozen=True)
class ClassificationOutcome:
    record_id: str
    predicted: ExploitClass
    provenance: str  # cvss_override | llm | manual
    raw_model_reply: str | None = None

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "predicted": class_name(self.predicted),
            "provenance": self.provenance,
            "raw_model_reply": self.raw_model_reply,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassificationOutcome":
        return cls(
            record_id=data["record_id"],
            predicted=parse_class_name(data["predicted"]),
            provenance=data["provenance"],
            raw_model_reply=data.get("raw_model_reply"),
        )


def _cache_key(record: ExploitRecord, model: str) -> str:
    blob = json.dumps(record_to_dict(record), sort_keys=True) + "\x00" + model
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def apply_cvss_override(predicted: ExploitClass, record: ExploitRecord) -> tuple[ExploitClass, bool]:
    """Substitute the required privilege from CVSS 3.x when that yields a valid class.

    Never touches exploit type, protocol or acquired privilege.
    """
    level = extract_required_privilege(record.cvss_vectors)
    if level is None or level == predicted.required:
        return predicted, False
    try:
        return replace(predicted, required=level), True
    except UnknownClass:
        return predicted, False


def classify_llm(record: ExploitRecord, client: LlmEndpoint,
                 shots: FewShotSet | None = None,
                 cache_dir: str | Path | None = None) -> ClassificationOutcome:
    """Classify one record via the endpoint, with one corrective retry and a
    CVSS-based required-privilege override.

    Outcomes are cached on disk keyed by (record content, model id) when
    ``cache_dir`` is given, so re-runs are free.
    """
    if shots is None:
        shots = default_few_shots()

    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"{_cache_key(record, client.model)}.json"
        if cache_path.exists():
            return ClassificationOutcome.from_dict(
                json.loads(cache_path.read_text("utf-8"))
            )

    bundle = build_prompt(record, shots)
    messages = bundle.as_messages()
    reply = client.complete(messages)
    replies = [reply]
    try:
        predicted = parse_class_name(reply.strip())
    except UnknownClass:
        retry_messages = messages + [
            {"role": "assistant", "content": reply},
            {"role": "user", "content": _RETRY_INSTRUCTION},
        ]
        reply = client.complete(retry_messages)
        replies.append(reply)
        try:
            predicted = parse_class_name(reply.strip())
        except UnknownClass:
            raise UnparseableReply(record.id, replies) from None

    predicted, overridden = apply_cvss_override(predicted, record)
    outcome = ClassificationOutcome(
        record_id=record.id,
        predicted=predicted,
        provenance="cvss_override" if overridden else "llm",
        raw_model_reply=reply,
    )

    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # unique temp name + atomic rename: concurrent writers cannot corrupt
        tmp = cache_path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(outcome.to_dict(), indent=2), "utf-8")
        tmp.replace(cache_path)
    return outcome


# --- evaluation ----------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    """Class-weighted precision/recall/F1 per classification attribute."""

    type: Metrics
    protocol: Metrics
    required: Metrics
    acquired: Metrics
    overall: Metrics
    counts: dict

    def to_dict(self) -> dict:
        def row(m: Metrics) -> dict:
            return {"precision": m.precision, "recall": m.recall, "f1": m.f1}

        return {
            "type": row(self.type),
            "protocol": row(self.protocol),
            "required": row(self.required),
            "acquired": row(self.acquired),
            "overall": row(self.overall),
            "counts": self.counts,
        }


def weighted_metrics(pairs: list[tuple[str, str]]) -> Metrics:
    """Precision/recall/F1 weighted by true-label support.

    ``pairs`` holds (predicted, true) labels. Zero-denominator precision is
    scored 0. With no pairs at all, every metric is 0.
    """
    if not pairs:
        return Metrics(0.0, 0.0, 0.0)
    labels = sorted({true for _, true in pairs})
    total = len(pairs)
    precision = recall = f1 = 0.0
    for label in labels:
        tp = sum(1 for p, t in pairs if p == label and t == label)
        fp = sum(1 for p, t in pairs if p == label and t != label)
        support = sum(1 for _, t in pairs if t == label)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / support
        f = 2 * p * r / (p + r) if p + r else 0.0
        weight = support / total
        precision += weight * p
        recall += weight * r
        f1 += weight * f
    return Metrics(precision, recall, f1)


def evaluate(predictions: list[ClassificationOutcome],
             truth: list[tuple[str, ExploitClass]]) -> EvalReport:
    """Score predictions against ground truth, weighted by label distribution.

    The protocol attribute is evaluated only over records whose *true* type
    is RCE; "overall" is exact-match of the full class tuple. Weighted recall
    equals plain accuracy by construction.
    """
    truth_map = dict(truth)
    rows = []
    for outcome in predictions:
        if outcome.record_id not in truth_map:
            raise MissingTruth(f"no ground truth for record {outcome.record_id!r}")
        rows.append((outcome.predicted, truth_map[outcome.record_id]))

    def label(value) -> str:
        return value.value if hasattr(value, "value") else str(value)

    type_pairs = [(p.exploit_type.value, t.exploit_type.value) for p, t in rows]
    protocol_pairs = [
        (label(p.protocol) if p.protocol else "none", t.protocol.value)
        for p, t in rows
        if t.exploit_type is ExploitType.RCE
    ]
    required_pairs = [(p.required.letter, t.required.letter) for p, t in rows]
    acquired_pairs = [(p.acquired.letter, t.acquired.letter) for p, t in rows]
    overall_pairs = [(class_name(p), class_name(t)) for p, t in rows]

    def support(pairs) -> dict:
        out: dict[str, int] = {}
        for _, t in pairs:
            out[t] = out.get(t, 0) + 1
        return dict(sorted(out.items()))

    return EvalReport(
        type=weighted_metrics(type_pairs),
        protocol=weighted_metrics(protocol_pairs),
        required=weighted_metrics(required_pairs),
        acquired=weighted_metrics(acquired_pairs),
        overall=weighted_metrics(overall_pairs),
        counts={
            "type": support(type_pairs),
            "protocol": support(protocol_pairs),
            "required": support(required_pairs),
            "acquired": support(acquired_pairs),
            "overall": support(overall_pairs),
        },
    )
