"""Bundled example nets plus generators for benchmark inputs."""

from pathlib import Path

_HERE = Path(__file__).resolve().parent


def available():
    """Names of the bundled `.inet` files."""
    return sorted(p.stem for p in _HERE.glob("*.inet"))


def fixture_path(name: str) -> Path:
    path = _HERE / f"{name}.inet"
    if not path.is_file():
        raise FileNotFoundError(
            f"no bundled fixture {name!r}; available: {', '.join(available())}"
        )
    return path


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def delegation_chain(depth: int) -> str:
    """Source for a net whose needed-mode run is exactly `depth` delegations.

    A unary agent is stacked `depth` deep over a demanded leaf; the root
    meets an inert agent with no rule, so the whole run is demand
    propagation followed by one observable terminal.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    body = "U(" * depth + "!P" + ")" * depth
    return (
        "agent U/1\n"
        "agent P/0\n"
        "agent T/0\n"
        f"net chain {{ {body} = T; }}\n"
    )


def comb(depth: int) -> str:
    """Source for a net whose full-mode run is exactly `depth` indirections.

    A binary spine `C(x1, C(x2, ... Z))` meets an inert agent with no
    rule, and each `xi = Z` splices a leaf into the spine, where the
    other occurrence of `xi` sits i levels down. The residual is the
    spine with every `xi` replaced by `Z`.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    spine = "".join(f"C(x{i}, " for i in range(1, depth + 1)) + "Z" + ")" * depth
    leaves = " ".join(f"x{i} = Z;" for i in range(1, depth + 1))
    return (
        "agent C/2\n"
        "agent Z/0\n"
        "agent T/0\n"
        f"net comb {{ {spine} = T; {leaves} }}\n"
    )


def deep_splice(depth: int) -> str:
    """Source for a net whose one full-mode indirection reads `2 * depth + 1`.

    `x = B(...B(Z)...)` splices a side of `depth + 1` agents into the
    other occurrence of `x`, which sits `depth` levels down a spine of
    `C` agents meeting an inert agent. The wire classifier's walk down
    the side and climb up from the partner, run in lock step, both take
    about `depth` reads, so a user net of `2 * depth + 2` agents spends
    reads in proportion to its size on one step.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    spine = "C(" * depth + "x" + ")" * depth
    side = "B(" * depth + "Z" + ")" * depth
    return (
        "agent C/1\n"
        "agent B/1\n"
        "agent Z/0\n"
        "agent T/0\n"
        f"net splice {{ T = {spine}; x = {side}; }}\n"
    )
