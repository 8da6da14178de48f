"""Random command lines for each row of ``geomlim.cli.COMMANDS``, and the
check that ``cli._read_plain`` reads a line as the row's argparse parser
does wherever it reads it at all.  Standard library only, so it also runs
on an interpreter without numpy or hypothesis:

    PYTHONPATH=src python tests/argv_lines.py [SEEDS] [LINES]

prints, for each of SEEDS seeds (default 3), how many of LINES random
lines (default 60000) the reader took, and exits 1 on the first line it
reads otherwise than argparse.
"""

import functools
import random
import sys

from geomlim import cli

# the words a value or positional is drawn from: numbers, negative ones,
# "-", "--", an empty word, "_" and non-ASCII digits, words holding "="
# or a space, and option-like words
VALUES = ["1", "-1", "-2.5", "x", "-", "--", "", "1_0", "٣", "json",
          "a=b", "a b", "-h", "--out"]


def rows(table=cli.COMMANDS, words=()):
    """(words, row) of each row of COMMANDS, words naming it."""
    for word, row in table.items():
        if isinstance(row, dict):
            yield from rows(row, (*words, word))
        else:
            yield (*words, word), row


ROWS = list(rows())


def random_line(rng, row):
    """A line of row's arguments: each, most often, in a plain form with
    a value, most often plain, in shuffled order; then a few words of
    noise, such as an abbreviation, a repeated option, a flag with "=",
    -h or a value from VALUES."""
    arguments = cli.COMMON_ARGUMENTS + row[2]
    flags = [flag for flag, _ in arguments if flag[0] == "-"]
    parts = []
    for flag, kw in arguments:
        if rng.random() < (0.9 if flag[0] != "-" or "required" in kw
                           else 0.3):
            value = rng.choice(["1", "3", "t^2,t,1", rng.choice(VALUES)])
            if flag[0] != "-":
                parts.append([value])
            elif "action" in kw:
                parts.append([flag])
            else:
                parts.append([flag + "=" + value] if rng.random() < 0.5
                             else [flag, value])
    rng.shuffle(parts)
    line = [word for part in parts for word in part]
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        flag = rng.choice(flags)
        noise = rng.choice([
            [rng.choice(VALUES)],
            [flag, rng.choice(VALUES)],
            [flag + "=" + rng.choice(VALUES)],
            [flag[:rng.randrange(3, len(flag) + 1)], rng.choice(VALUES)],
            [flag],
            [flag + "="],
            [rng.choice(["-h", "--help", "--", "-"])],
        ])
        at = rng.randrange(len(line) + 1)
        line[at:at] = noise
    return line


def check(words, line):
    """Whether _read_plain reads line, a line of the row words names;
    where it does, assert that it reads what the row's parser reads."""
    row = functools.reduce(dict.__getitem__, words, cli.COMMANDS)
    got = cli._read_plain(cli.COMMON_ARGUMENTS + row[2], line)
    if got is None:
        return False
    try:
        want = vars(cli._parser(words).parse_args(line))
    except (cli.InvalidInput, SystemExit) as exc:
        want = exc
    assert vars(got) == want, (words, line, vars(got), want)
    return True


def main(seeds=3, lines=60000):
    for seed in range(seeds):
        rng = random.Random(seed)
        taken = 0
        for _ in range(lines):
            words, row = rng.choice(ROWS)
            taken += check(words, random_line(rng, row))
        print("Python {}.{}.{}: seed {}: {} lines, {} read plainly, all "
              "as argparse reads them".format(*sys.version_info[:3], seed,
                                               lines, taken))


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
