#include "incremental/schema_edit.h"

#include <utility>
#include <vector>

namespace cupid {

SchemaEdit SchemaEdit::AddElement(EditSide side, std::string parent_path,
                                  Element element) {
  SchemaEdit e;
  e.kind = Kind::kAddElement;
  e.side = side;
  e.path = std::move(parent_path);
  e.element = std::move(element);
  return e;
}

SchemaEdit SchemaEdit::RemoveElement(EditSide side, std::string path) {
  SchemaEdit e;
  e.kind = Kind::kRemoveElement;
  e.side = side;
  e.path = std::move(path);
  return e;
}

SchemaEdit SchemaEdit::RenameElement(EditSide side, std::string path,
                                     std::string new_name) {
  SchemaEdit e;
  e.kind = Kind::kRenameElement;
  e.side = side;
  e.path = std::move(path);
  e.new_name = std::move(new_name);
  return e;
}

SchemaEdit SchemaEdit::ChangeDataType(EditSide side, std::string path,
                                      DataType new_type) {
  SchemaEdit e;
  e.kind = Kind::kChangeDataType;
  e.side = side;
  e.path = std::move(path);
  e.new_type = new_type;
  return e;
}

Result<Schema> RemoveSubtree(const Schema& schema, ElementId victim,
                             std::vector<ElementId>* prior_ids) {
  if (!schema.Contains(victim)) {
    return Status::InvalidArgument("RemoveSubtree: element id out of range");
  }
  if (victim == schema.root()) {
    return Status::InvalidArgument("cannot remove the schema root");
  }
  // The containment subtree of the victim.
  std::vector<bool> removed(static_cast<size_t>(schema.num_elements()), false);
  std::vector<ElementId> stack{victim};
  while (!stack.empty()) {
    ElementId e = stack.back();
    stack.pop_back();
    removed[static_cast<size_t>(e)] = true;
    for (ElementId c : schema.children(e)) stack.push_back(c);
  }
  // RefInts whose every reference target goes away would fail validation
  // ("references nothing"); they are part of the removed constraint, so
  // they go too.
  for (ElementId id = 0; id < schema.num_elements(); ++id) {
    if (removed[static_cast<size_t>(id)] ||
        schema.element(id).kind != ElementKind::kRefInt) {
      continue;
    }
    bool any_target_left = false;
    for (ElementId t : schema.references(id)) {
      if (!removed[static_cast<size_t>(t)]) any_target_left = true;
    }
    if (!any_target_left) removed[static_cast<size_t>(id)] = true;
  }

  // Rebuild, preserving creation order (children vectors keep their relative
  // order, which keeps schema-tree node order stable for survivors).
  Schema out(schema.name());
  *out.mutable_element(out.root()) = schema.element(schema.root());
  std::vector<ElementId> remap(static_cast<size_t>(schema.num_elements()),
                               kNoElement);
  remap[0] = 0;
  for (ElementId id = 1; id < schema.num_elements(); ++id) {
    if (removed[static_cast<size_t>(id)]) continue;
    ElementId p = schema.parent(id);
    // Parents are created before their children, so remap[p] is resolved.
    ElementId np = p == kNoElement ? kNoElement : remap[static_cast<size_t>(p)];
    remap[static_cast<size_t>(id)] = out.AddElement(schema.element(id), np);
  }
  for (ElementId id = 0; id < schema.num_elements(); ++id) {
    if (removed[static_cast<size_t>(id)]) continue;
    ElementId from = remap[static_cast<size_t>(id)];
    for (ElementId t : schema.derived_from(id)) {
      if (removed[static_cast<size_t>(t)]) continue;
      CUPID_RETURN_NOT_OK(
          out.AddIsDerivedFrom(from, remap[static_cast<size_t>(t)]));
    }
    for (ElementId t : schema.aggregates(id)) {
      if (removed[static_cast<size_t>(t)]) continue;
      CUPID_RETURN_NOT_OK(
          out.AddAggregation(from, remap[static_cast<size_t>(t)]));
    }
    for (ElementId t : schema.references(id)) {
      if (removed[static_cast<size_t>(t)]) continue;
      CUPID_RETURN_NOT_OK(
          out.AddReference(from, remap[static_cast<size_t>(t)]));
    }
  }
  CUPID_RETURN_NOT_OK(out.Validate());
  if (prior_ids != nullptr) {
    prior_ids->assign(static_cast<size_t>(out.num_elements()), kNoElement);
    for (ElementId id = 0; id < schema.num_elements(); ++id) {
      const ElementId to = remap[static_cast<size_t>(id)];
      if (to != kNoElement) (*prior_ids)[static_cast<size_t>(to)] = id;
    }
  }
  return out;
}

Status ApplySchemaEdit(Schema* schema, const SchemaEdit& edit,
                       std::vector<ElementId>* prior_ids) {
  ElementId id = schema->FindByPath(edit.path);
  if (id == kNoElement) {
    return Status::NotFound("edit path not in schema: " + edit.path);
  }
  if (edit.kind == SchemaEdit::Kind::kRemoveElement) {
    CUPID_ASSIGN_OR_RETURN(*schema, RemoveSubtree(*schema, id, prior_ids));
    return Status::OK();
  }
  // The other edits keep every id; an added element is appended.
  const int64_t before = schema->num_elements();
  switch (edit.kind) {
    case SchemaEdit::Kind::kAddElement: {
      if (edit.element.name.empty()) {
        return Status::InvalidArgument("added element needs a name");
      }
      if (edit.element.kind == ElementKind::kRoot) {
        return Status::InvalidArgument("cannot add a second root");
      }
      if (edit.element.kind == ElementKind::kRefInt) {
        // SchemaEdit cannot attach reference edges, and a RefInt without
        // them fails Schema::Validate() at the next Rematch.
        return Status::InvalidArgument(
            "cannot add RefInt elements through SchemaEdit (no way to "
            "attach their reference edges)");
      }
      schema->AddElement(edit.element, id);
      break;
    }
    case SchemaEdit::Kind::kRenameElement: {
      if (edit.new_name.empty()) {
        return Status::InvalidArgument("new element name must be non-empty");
      }
      schema->mutable_element(id)->name = edit.new_name;
      break;
    }
    case SchemaEdit::Kind::kChangeDataType: {
      if (id == schema->root()) {
        return Status::InvalidArgument("cannot retype the schema root");
      }
      schema->mutable_element(id)->data_type = edit.new_type;
      break;
    }
    default:
      return Status::InvalidArgument("unknown edit kind");
  }
  if (prior_ids != nullptr) {
    prior_ids->assign(static_cast<size_t>(schema->num_elements()),
                      kNoElement);
    for (ElementId e = 0; e < before; ++e) {
      (*prior_ids)[static_cast<size_t>(e)] = e;
    }
  }
  return Status::OK();
}

}  // namespace cupid
