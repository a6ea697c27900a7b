// Schema edits — the mutation vocabulary of MatchSession (Section 8.4 of
// the paper envisions feeding a corrected previous mapping back into a
// re-run; the serving reality behind it is schemas that change a few
// elements at a time).
//
// Edits address elements by dotted containment paths (Schema::FindByPath,
// root name included), so they are stable across the id compaction a
// removal performs; ApplySchemaEdit reports how each edit moved the ids.

#ifndef CUPID_INCREMENTAL_SCHEMA_EDIT_H_
#define CUPID_INCREMENTAL_SCHEMA_EDIT_H_

#include <string>
#include <vector>

#include "schema/schema.h"
#include "util/status.h"

namespace cupid {

/// Which schema of the session's pair an edit applies to.
enum class EditSide { kSource, kTarget };

/// \brief One schema mutation. Build instances through the static
/// constructors; `kind` selects which payload fields are meaningful.
struct SchemaEdit {
  enum class Kind {
    kAddElement,     ///< add `element` under the container at `path`
    kRemoveElement,  ///< remove the element at `path` and its subtree
    kRenameElement,  ///< rename the element at `path` to `new_name`
    kChangeDataType, ///< set the data type of the element at `path`
  };

  Kind kind = Kind::kRenameElement;
  EditSide side = EditSide::kSource;
  /// Element addressed (kAddElement: the *parent* container).
  std::string path;
  Element element;                         // kAddElement payload
  std::string new_name;                    // kRenameElement payload
  DataType new_type = DataType::kUnknown;  // kChangeDataType payload

  static SchemaEdit AddElement(EditSide side, std::string parent_path,
                               Element element);
  static SchemaEdit RemoveElement(EditSide side, std::string path);
  static SchemaEdit RenameElement(EditSide side, std::string path,
                                  std::string new_name);
  static SchemaEdit ChangeDataType(EditSide side, std::string path,
                                   DataType new_type);
};

/// \brief Applies `edit` to `schema` in place. On success a non-null
/// `prior_ids` receives, per element of the edited schema, its id before
/// the edit, or kNoElement for the added element.
///
/// kRemoveElement rebuilds the schema without the subtree (surviving
/// ElementIds are compacted in their relative order; `prior_ids` relates
/// them). Dangling non-containment edges are dropped, and RefInt elements
/// left referencing nothing are removed with the subtree. The root can be
/// renamed but not removed or retyped.
Status ApplySchemaEdit(Schema* schema, const SchemaEdit& edit,
                       std::vector<ElementId>* prior_ids = nullptr);

/// \brief Copy of `schema` without the containment subtree rooted at
/// `victim` (which must not be the root). A non-null `prior_ids` receives,
/// per element of the copy, its id in `schema`.
Result<Schema> RemoveSubtree(const Schema& schema, ElementId victim,
                             std::vector<ElementId>* prior_ids = nullptr);

}  // namespace cupid

#endif  // CUPID_INCREMENTAL_SCHEMA_EDIT_H_
