#!/usr/bin/env bash
# A/A check: two alternating sets of runs of the current build, judged by the
# driver's own rule. Arguments as for `run.sh aa`.
exec bash "$(dirname "$0")/run.sh" aa "$@"
