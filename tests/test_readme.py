import pathlib
import shlex

from tvmask import config
from tvmask.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> list[str]:
    """Lines of the first ```bash block under the README's "## Quick start"."""
    lines = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].splitlines()
    start = lines.index("```bash") + 1
    return lines[start:lines.index("```", start)]


def test_quick_start_config_and_commands_parse():
    # nothing is run: the heredoc config must validate and every tvmask
    # line must parse, so a removed key or flag cannot linger in the README
    block = quick_start_block()
    opener = next(i for i, line in enumerate(block) if line.startswith("cat > ") and "<<" in line)
    end = block.index("EOF", opener)
    cfg = config.from_text("\n".join(block[opener + 1:end]) + "\n")
    cfg.validate()
    commands = [shlex.split(line, comments=True) for line in block if line.startswith("tvmask ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
