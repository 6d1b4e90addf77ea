"""Command-line surface: embed, extract, verify, capacity, inspect, attack, train-demo.

Exit codes: 0 success (verify: match), 1 verify mismatch, 2 usage or
format errors.  Every command accepts --json for machine-readable output.
Scheme parameters (--l, --pmin, --pmax, --criterion) are inputs at both
ends and are never stored inside a model, so a marked model stays
indistinguishable from an ordinarily pruned one.  With --receipt the
receipt supplies them and the payload length --n; a flag given beside it
must agree with the receipt or the command exits 2.  --original and
--receipt exclude each other, as do capacity's --t and --arch; capacity
takes --pmin, --pmax and --criterion only with --arch, which counts the
eligible conv layers.  attack takes the extraction flags (--original,
--receipt, --key, --n and the scheme flags) and --theta only with
--expect, and each of --sigma (noise), --fraction (zero), --epochs and
--lr (finetune) and --extra-rate (structural) only with its own --type;
--seed goes with every type.  inspect takes --arch, --weights and
--criterion only with --scores and the other flags only without it.  A
flag the command would ignore exits 2, before any file is read.

embed parses --payload and the scheme flags before it reads the host, and
streams the host's blob through the embed one layer at a time
(``pipeline.embed_stream``), so its working memory is bounded by the
largest layer, not the host; with --finetune-epochs it then loads the
staged marked model, fine-tunes it and saves it over the staged files.
extract, verify and attack --expect read the receipt or the --original
manifest before any other work and bind ``pipeline.extract`` to it
(``_resolve_source``), so each suspect is one call; attack --expect also
runs that extraction on the loaded model before attacking it, since no
attack changes the conv count and every extraction error depends on that
count alone.  attack --type finetune is ``toy_trainer.finetune`` on the
synthetic task.  A path flag that holds a NUL byte fails to parse, and
an ``NNWM_SEED`` that is not an integer, or is negative, exits 2.

embed's model and receipt and attack's model appear whole or not at all:
each is written to a new file beside its target and moved into place only
after every write has succeeded (``model_store.staged_outputs``);
attack --expect verifies the attacked graph before that move.  An
existing output is removed first, so a symlinked target is replaced, not
written through.  A target that is a directory or lies in a missing
directory exits 2 before any work; two outputs that name one file exit 2
before anything is moved.  train-demo's
--metrics-csv is the exception: it streams one row per epoch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import pipeline, pruner, wm_codec
from .errors import NnwmError
from .fixtures import vgg_tiny
from .importance import normalize_criterion, score
from .model_store import (
    ModelGraph,
    channel_counts,
    conv_layer_indices,
    load_arch,
    load_model,
    save_model,
    staged_outputs,
)
from .toy_trainer import TrainConfig, check_fit, evaluate, finetune, synth_dataset
from .wm_codec import EmbedParams, WatermarkPayload


def _default_seed() -> int:
    text = os.environ.get("NNWM_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        raise NnwmError(f"NNWM_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise NnwmError(f"NNWM_SEED must be >= 0, got {seed}")
    return seed


def _hex(flag: str, digits: str) -> bytes:
    try:
        return bytes.fromhex(digits)
    except ValueError:
        raise NnwmError(f"{flag}: invalid hex string {digits!r}") from None


def _parse_key(text: str) -> bytes:
    if text.startswith("hex:"):
        return _hex("--key", text[4:])
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise NnwmError(f"--key is not valid UTF-8 text: {e}") from None


def _parse_payload(flag: str, text: str) -> str:
    """Bits from a flag's '0'/'1' string, hex:<digits> or @file."""
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8").strip()
        except UnicodeDecodeError as e:
            raise NnwmError(f"{flag} file {text[1:]} is not UTF-8 text: {e}") from None
        except ValueError as e:  # a NUL in the path, which only an in-process caller passes
            raise NnwmError(f"{flag} file {text[1:]!r}: {e}") from None
    if text.startswith("hex:"):
        return "".join(format(b, "08b") for b in _hex(flag, text[4:]))
    if not text or set(text) - {"0", "1"}:
        raise NnwmError(f"{flag} must be a '0'/'1' string, hex:<digits>, or @file")
    return text


def _path(text: str) -> str:
    """A path flag's text; one holding a NUL, which no file name can, fails to parse."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"path {text!r} holds a NUL byte")
    return text


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(human)


SCHEME_DEFAULTS = {"l": 3, "pmin": wm_codec.DEFAULT_P_MIN, "pmax": wm_codec.DEFAULT_P_MAX,
                   "criterion": "l1"}


def _params_from(args, receipt: pruner.Receipt | None = None) -> EmbedParams:
    """Fill each omitted scheme flag, then build the parameters (key b"" when none).

    With a receipt, omitted flags and --n take its values and a given one must
    agree with it: extraction decodes with what was embedded.
    """
    pinned = {} if receipt is None else {
        "l": receipt.segment_length, "pmin": receipt.p_min, "pmax": receipt.p_max,
        "criterion": receipt.criterion, "n": receipt.payload_bits}
    for name, value in {**SCHEME_DEFAULTS, **pinned}.items():
        given = getattr(args, name)
        if given is None:
            setattr(args, name, value)
        elif name in pinned and value != (
                normalize_criterion(given) if name == "criterion" else given):
            raise NnwmError(f"--{name} {given} does not match the receipt's {value}")
    return EmbedParams(segment_length=args.l, key=_parse_key(getattr(args, "key", None) or ""),
                       p_min=args.pmin, p_max=args.pmax)


def cmd_embed(args) -> int:
    out_arch = f"{args.out_prefix}.json"
    out_weights = f"{args.out_prefix}.bin"
    tune_cfg = TrainConfig(epochs=args.finetune_epochs, lr=0.001, seed=args.seed)
    params = _params_from(args)
    payload = WatermarkPayload(_parse_payload("--payload", args.payload), args.l)
    with staged_outputs(out_arch, out_weights, args.receipt) as (tmp_arch, tmp_weights,
                                                                 tmp_receipt):
        host = load_arch(args.arch)
        if tune_cfg.epochs > 0:
            train, _ = synth_dataset(args.seed, 512, 256)
            check_fit(host, train)  # before the embed work; finetune checks the marked model
        receipt = pipeline.embed_stream(host, args.weights, payload, params, tmp_arch,
                                        tmp_weights, criterion=args.criterion, decoy=args.decoy)
        if tune_cfg.epochs > 0:
            tuned = finetune(load_model(tmp_arch, tmp_weights), train, tune_cfg)
            save_model(tuned, tmp_arch, tmp_weights)
        pruner.save_receipt(receipt, tmp_receipt)
    # only for a written mark, so that an exit 2 prints its error line alone
    for w in pipeline.one_value_warnings(wm_codec.segment(payload), "segments have"):
        print(f"warning: {w}", file=sys.stderr)
    eligible = pipeline.eligible_layers(host, params, args.criterion)
    t = len(channel_counts(host))
    n_max = wm_codec.capacity(len(eligible), args.l, 1.0)
    lines = [
        f"payload: n={payload.n} bits, m={payload.num_segments} segments (l={args.l})",
        f"selected layers: {payload.num_segments} of {len(eligible)} eligible "
        f"({t} conv layers total)",
        f"capacity: N={n_max} bits at full coverage of the eligible set",
        f"{'index':>5} {'c':>5} {'c_pruned':>8} {'target':>9} {'realized':>9}",
    ]
    for e in receipt.layers:
        lines.append(f"{e.index:>5} {e.c:>5} {e.c_pruned:>8} "
                     f"{e.target_rate:>9.5f} {e.realized_rate:>9.6f}")
    lines.append(f"wrote {out_arch}, {out_weights}, receipt {args.receipt}")
    _emit(args, {
        "command": "embed", "n": payload.n, "m": payload.num_segments,
        "selected": [e.index for e in receipt.layers],
        "eligible": len(eligible), "capacity_bits": n_max,
        "layers": [vars(e) for e in receipt.layers],
        "out_arch": out_arch, "out_weights": out_weights, "receipt": args.receipt,
    }, "\n".join(lines))
    return 0


def _resolve_source(args) -> Callable[[ModelGraph], pipeline.ExtractionResult]:
    """Check the extraction flags, then read the receipt or the --original manifest;
    return ``pipeline.extract`` bound to it and the flags, awaiting the suspect."""
    if args.receipt:
        receipt = pruner.load_receipt(args.receipt)
        params = _params_from(args, receipt)
        key = None if args.key is None else params.key
        return lambda suspect: pipeline.extract(receipt, suspect, key=key)
    missing = [f"--{f}" for f in ("original", "key", "n") if getattr(args, f) is None]
    if missing:
        raise NnwmError(f"extraction needs --receipt, or --original with --key and --n "
                        f"(missing {', '.join(missing)})")
    params = _params_from(args)  # the flags before the manifest
    original, n, criterion = load_arch(args.original), args.n, args.criterion
    return lambda suspect: pipeline.extract(original, suspect, params=params, n=n,
                                            criterion=criterion)


def _warn(result: pipeline.ExtractionResult) -> pipeline.ExtractionResult:
    """Print the result's warnings to stderr and return it."""
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return result


def cmd_extract(args) -> int:
    extraction = _resolve_source(args)
    result = _warn(extraction(load_arch(args.suspect)))
    _emit(args, {
        "command": "extract", "bits": result.bits,
        "segments": [vars(s) for s in result.segments],
        "warnings": result.warnings,
    }, result.bits)
    return 0


def _verify_inputs(args) -> tuple[str, Callable[[ModelGraph], pipeline.ExtractionResult]]:
    """The expected bits and the bound extraction, checked before any work.

    Also fills an omitted --theta with 0.0 and checks its range, and checks
    that --expect is as long as the payload.
    """
    args.theta = pipeline.check_theta(0.0 if args.theta is None else args.theta)
    expected, extraction = _parse_payload("--expect", args.expect), _resolve_source(args)
    if len(expected) != args.n:  # --n, or the receipt's
        raise NnwmError(f"--expect has {len(expected)} bits, but the payload has {args.n}")
    return expected, extraction


def _emit_verdict(args, report: pipeline.VerifyReport) -> int:
    """Print the verify report; 0 match, 1 mismatch."""
    verdict = "match" if report.matched else "mismatch"
    _emit(args, {
        "command": "verify", "ber": report.ber, "theta": report.theta,
        "matched": report.matched, "extracted": report.extracted,
    }, f"BER {report.ber:.6f}  verdict: {verdict}")
    return 0 if report.matched else 1


def cmd_verify(args) -> int:
    expected, extraction = _verify_inputs(args)
    result = _warn(extraction(load_arch(args.suspect)))
    return _emit_verdict(args, pipeline.verify(expected, result, theta=args.theta))


def cmd_capacity(args) -> int:
    if args.arch is None:
        _reject(args, ("pmin", "pmax", "criterion"), "used only by capacity --arch")
        t = args.t
    else:
        params = _params_from(args)
        # required=1, so a host with no eligible layer exits 2 with the reasons
        t = len(pipeline.eligible_layers(load_arch(args.arch), params, args.criterion,
                                         required=1))
    n = wm_codec.capacity(t, args.l, args.rcov)
    _emit(args, {"command": "capacity", "t": t, "l": args.l, "r_cov": args.rcov,
                 "capacity_bits": n}, str(n))
    return 0


def _reject(args, flags, why: str) -> None:
    """Raise (exit 2) naming every one of flags that was given: the command would ignore it."""
    given = [f"--{f.replace('_', '-')}" for f in flags if getattr(args, f) is not None]
    if given:
        raise NnwmError(f"{', '.join(given)}: {why}")


def cmd_inspect(args) -> int:
    if args.scores:
        _reject(args, ("original", "suspect", "l", "pmin", "pmax"),
                "not used by inspect --scores")
    else:
        _reject(args, ("arch", "weights", "criterion"), "used only by inspect --scores")
    params = _params_from(args)
    if args.scores:
        if not (args.arch and args.weights):
            raise NnwmError("inspect --scores needs --arch and --weights")
        model = load_model(args.arch, args.weights)
        positions = conv_layer_indices(model)
        crit = normalize_criterion(args.criterion)
        rows = []
        for ordinal, pos in enumerate(positions):
            rows.append({"index": ordinal, "position": pos,
                         "scores": [float(s) for s in score(model, pos, crit)]})
        human = "\n".join(
            f"conv {r['index']} (layer {r['position']}): " +
            " ".join(f"{s:.4g}" for s in r["scores"]) for r in rows)
        _emit(args, {"command": "inspect", "criterion": crit, "layers": rows}, human)
        return 0
    if not (args.original and args.suspect):
        raise NnwmError("inspect needs --original and --suspect (or --scores)")
    c_orig, c_susp = pipeline.matched_channel_counts(load_arch(args.original),
                                                     load_arch(args.suspect))
    segments = pipeline.decode_segments(list(enumerate(c_orig)), c_susp, params)
    rows = [{"index": s.layer_index, "c": s.c, "c_suspect": s.c_suspect, "rate": s.rate,
             "value": s.value, "in_range": not s.clamped} for s in segments]
    lines = [f"{'index':>5} {'c':>5} {'c_susp':>6} {'rate':>9} {'d':>4} {'note':>6}"]
    for r in rows:
        note = "" if r["in_range"] else "clamp"
        lines.append(f"{r['index']:>5} {r['c']:>5} {r['c_suspect']:>6} "
                     f"{r['rate']:>9.6f} {r['value']:>4} {note:>6}")
    _emit(args, {"command": "inspect", "layers": rows}, "\n".join(lines))
    return 0


# each attack type's own flags, by attribute, with their defaults
ATTACK_DEFAULTS = {"noise": {"sigma": 0.1}, "zero": {"fraction": 0.3},
                   "finetune": {"epochs": 5, "lr": 0.001}, "structural": {"extra_rate": 0.05}}


def cmd_attack(args) -> int:
    own = ATTACK_DEFAULTS[args.type]
    _reject(args, [f for flags in ATTACK_DEFAULTS.values() for f in flags if f not in own],
            f"not used by attack --type {args.type}")
    for name, value in own.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.expect:
        expected, extraction = _verify_inputs(args)
    else:
        _reject(args, (*EXTRACT_FLAGS, "theta"), "used only by attack --expect")
    out_arch = f"{args.out_prefix}.json"
    out_weights = f"{args.out_prefix}.bin"
    with staged_outputs(out_arch, out_weights) as (tmp_arch, tmp_weights):
        model = load_model(args.arch, args.weights)
        if args.expect:  # no attack changes the conv count: fail now, not after the attack
            extraction(model)  # its warnings print after the attack
        if args.type == "noise":
            attacked = pipeline.attack_noise(model, args.sigma, seed=args.seed)
        elif args.type == "zero":
            attacked = pipeline.attack_zero_weights(model, args.fraction)
        elif args.type == "finetune":
            train, _ = synth_dataset(args.seed, 512, 256)
            attacked = finetune(model, train,
                                TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed))
        else:
            attacked = pipeline.attack_structural(model, args.extra_rate, seed=args.seed)
        save_model(attacked, tmp_arch, tmp_weights)
        # before the move, so that an extraction error leaves no output
        report = (pipeline.verify(expected, _warn(extraction(attacked)), theta=args.theta)
                  if args.expect else None)
    doc = {"command": "attack", "type": args.type,
           "out_arch": out_arch, "out_weights": out_weights,
           "channel_counts": channel_counts(attacked)}
    _emit(args, doc, f"applied {args.type}; wrote {out_arch}, {out_weights}")
    return 0 if report is None else _emit_verdict(args, report)


def cmd_train_demo(args) -> int:
    base_cfg = TrainConfig(epochs=args.epochs, lr=0.01, seed=args.seed)
    tune_cfg = TrainConfig(epochs=args.finetune_epochs, lr=0.001, seed=args.seed + 1)
    params = _params_from(args)
    host = vgg_tiny(args.seed)
    t = len(channel_counts(host))
    pipeline.eligible_layers(host, params, args.criterion, required=t)  # widths never train
    train, test = synth_dataset(args.seed, 512, 256)
    # Opened before any training, so that a bad path exits 2 at once.
    with (open(args.metrics_csv, "w", encoding="utf-8") if args.metrics_csv
          else contextlib.nullcontext()) as csv:

        def log_epoch(epoch, model, loss):
            csv.write(f"{epoch},{loss:.6f},{evaluate(model, test):.6f}\n")

        if csv:
            csv.write("epoch,train_loss,test_accuracy\n")
        after_epoch = log_epoch if csv else None
        base = finetune(host, train, base_cfg, after_epoch)
        acc_base = evaluate(base, test)
        rng = np.random.default_rng(args.seed)
        bits = "".join(rng.choice(["0", "1"], size=args.l * t))
        payload = WatermarkPayload(bits, args.l)
        marked, receipt = pipeline.embed(base, payload, params, criterion=args.criterion)
        tuned = finetune(marked, train, tune_cfg, after_epoch)
    acc_marked = evaluate(tuned, test)
    report = pipeline.verify(bits, pipeline.extract(receipt, tuned))
    doc = {
        "command": "train-demo", "seed": args.seed, "criterion": args.criterion,
        "payload_bits": len(bits), "baseline_accuracy": acc_base,
        "marked_accuracy": acc_marked, "accuracy_delta": acc_base - acc_marked,
        "ber": report.ber, "matched": report.matched,
        "channel_counts_before": channel_counts(base),
        "channel_counts_after": channel_counts(tuned),
    }
    human = (f"baseline accuracy:   {acc_base:.4f}\n"
             f"marked accuracy:     {acc_marked:.4f} "
             f"(delta {acc_base - acc_marked:+.4f})\n"
             f"watermark: {len(bits)} bits, BER {report.ber:.4f}, "
             f"{'match' if report.matched else 'MISMATCH'}")
    _emit(args, doc, human)
    return 0


def _add_scheme_flags(p: argparse.ArgumentParser, l_required: bool = False) -> None:
    d = SCHEME_DEFAULTS  # the flags default to None, so _params_from can tell them omitted
    p.add_argument("--l", type=int, required=l_required,
                   help="segment length in bits" + ("" if l_required else f" (default {d['l']})"))
    p.add_argument("--pmin", type=float, help=f"lowest pruning rate (default {d['pmin']})")
    p.add_argument("--pmax", type=float,
                   help=f"end of the pruning-rate range, exclusive (default {d['pmax']})")
    p.add_argument("--criterion", choices=["l1", "bn"],
                   help=f"importance criterion (default {d['criterion']})")


def _add_theta_flag(p: argparse.ArgumentParser) -> None:
    # defaults to None, so attack can tell it given without --expect
    p.add_argument("--theta", type=float,
                   help="largest bit error rate that still counts as a match (default 0.0)")


EXTRACT_FLAGS = ("original", "receipt", "key", "n", *SCHEME_DEFAULTS)


def _add_extract_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--original", type=_path, help="manifest of the unmarked model")
    source.add_argument("--receipt", type=_path,
                        help="embedding receipt; supplies the scheme flags and --n")
    p.add_argument("--key")
    p.add_argument("--n", type=int, help="payload length in bits")
    _add_scheme_flags(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nnwm parser, built once per process; an omitted --seed parses as None."""
    parser = argparse.ArgumentParser(
        prog="nnwm",
        description="Embed and verify ownership watermarks in CNN architectures "
                    "by channel pruning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="prune a payload into a model")
    p.add_argument("--arch", type=_path, required=True)
    p.add_argument("--weights", type=_path, required=True)
    p.add_argument("--payload", required=True, help="bits, hex:<digits>, or @file")
    p.add_argument("--key", required=True)
    _add_scheme_flags(p)
    p.add_argument("--out-prefix", type=_path, required=True)
    p.add_argument("--receipt", type=_path, required=True)
    p.add_argument("--finetune-epochs", type=int, default=0)
    p.add_argument("--decoy", action="store_true",
                   help="also prune non-carrier layers at key-stream rates")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="read the payload back from a suspect model")
    p.add_argument("--suspect", type=_path, required=True, help="manifest of the suspect model")
    _add_extract_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="extract and compare against expected bits")
    p.add_argument("--suspect", type=_path, required=True, help="manifest of the suspect model")
    _add_extract_flags(p)
    p.add_argument("--expect", required=True)
    _add_theta_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("capacity", help="embeddable bits for a layer count")
    layers = p.add_mutually_exclusive_group(required=True)
    layers.add_argument("--t", type=int, help="number of eligible conv layers")
    layers.add_argument("--arch", type=_path,
                        help="manifest whose eligible conv layers are counted")
    _add_scheme_flags(p, l_required=True)
    p.add_argument("--rcov", type=float, required=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("inspect", help="per-layer rates or importance scores")
    p.add_argument("--original", type=_path)
    p.add_argument("--suspect", type=_path)
    p.add_argument("--arch", type=_path)
    p.add_argument("--weights", type=_path)
    p.add_argument("--scores", action="store_true")
    _add_scheme_flags(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("attack", help="apply a removal attack, optionally verify after")
    p.add_argument("--type", required=True,
                   choices=["noise", "zero", "finetune", "structural"])
    p.add_argument("--arch", type=_path, required=True)
    p.add_argument("--weights", type=_path, required=True)
    p.add_argument("--out-prefix", type=_path, required=True)
    for kind, flags in ATTACK_DEFAULTS.items():  # None when omitted, so cmd_attack can tell
        for name, value in flags.items():
            p.add_argument(f"--{name.replace('_', '-')}", type=type(value),
                           help=f"only with --type {kind} (default {value})")
    p.add_argument("--seed", type=int)
    p.add_argument("--expect", help="chain a verify run against these bits")
    _add_extract_flags(p)
    _add_theta_flag(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("train-demo",
                       help="train fixture, embed, fine-tune, report accuracy delta")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--finetune-epochs", type=int, default=5)
    p.add_argument("--key", default="demo-key")
    _add_scheme_flags(p)
    p.add_argument("--metrics-csv", type=_path)
    p.set_defaults(func=cmd_train_demo)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:  # NNWM_SEED is read per call
            args.seed = _default_seed()
        return args.func(args)
    except (NnwmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
